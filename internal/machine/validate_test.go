package machine

import (
	"strings"
	"sync"
	"testing"

	"mermaid/internal/fault"
)

// Validate reaches the CPU timing table of a detailed machine's nodes, and
// the Node block a task-level machine carries: a negative multiply once ran
// matmul on t805-2x2 to 19,471 cycles against the preset's 29,807 and
// reported negative busy cycles.
func TestValidateReachesNodeTiming(t *testing.T) {
	for _, cfg := range []Config{T805Grid(2, 2), T805GridTaskLevel(4, 4)} {
		cfg.Node.Timing.Mul.Int = -30
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "negative Mul.Int latency -30") {
			t.Errorf("%s: error %v, want one naming Mul.Int", cfg.Name, err)
		}
	}
	cfg := T805Grid(2, 2)
	cfg.Node.Hierarchy.Bus.ArbitrationDelay = -1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "ArbitrationDelay") {
		t.Errorf("negative bus arbitration delay: error %v, want one naming it", err)
	}
}

// Copies of a configuration share its fault schedule. Validate fills the
// retransmission defaults into a schedule of the copy's own, so concurrent
// validations of copies (farm replicas, experiment points) never write the
// shared one; the race detector holds this.
func TestValidateLeavesSharedScheduleAlone(t *testing.T) {
	shared := &fault.Schedule{Links: []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10, To: 20}}}}
	base := T805Grid(2, 2)
	base.Faults = shared
	var wg sync.WaitGroup
	copies := make([]Config, 4)
	for i := range copies {
		copies[i] = base
		wg.Add(1)
		go func(c *Config) {
			defer wg.Done()
			if err := c.Validate(); err != nil {
				t.Error(err)
			}
		}(&copies[i])
	}
	wg.Wait()
	if shared.Retrans != (fault.Retrans{}) {
		t.Errorf("the shared schedule was written: %+v", shared.Retrans)
	}
	for _, c := range copies {
		if c.Faults == shared || c.Faults.Retrans != (fault.Retrans{Timeout: 500, Backoff: 2, MaxRetries: 16}) {
			t.Errorf("a copy's schedule: %p %+v", c.Faults, c.Faults.Retrans)
		}
	}
	// A schedule already filled is kept, not copied again.
	again := copies[0].Faults
	if err := copies[0].Validate(); err != nil || copies[0].Faults != again {
		t.Errorf("re-validation replaced a filled schedule (%v)", err)
	}
}
