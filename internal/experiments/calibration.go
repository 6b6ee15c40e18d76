package experiments

import (
	"fmt"

	"mermaid/internal/machine"
	"mermaid/internal/ops"
)

// calibration is the §3 validation path: "small benchmarks used to tune and
// validate the machine parameters of the simulation models". It runs a
// lat-mem-rd-style probe — strided loads over growing working sets, with the
// stride in bytes as sweep parameter "stride" — on the PowerPC 601 node and
// reports the mean load latency per working set. The measured staircase must
// recover the configured hierarchy: ~L1 hit latency while the set fits in
// L1, the L2 access cost up to the L2 capacity, and the full memory path
// beyond.
func calibration(s Spec) (*ResultSet, error) {
	// Default stride = L2 line size so every out-of-cache access is a full
	// miss.
	stride, err := s.intParam("stride", defCalibStrideByte)
	if err != nil {
		return nil, err
	}
	if stride <= 0 {
		return nil, fmt.Errorf("calibration: stride must be positive, got %d", stride)
	}
	sets := []struct {
		ws    uint64
		level string
	}{
		{4 << 10, "L1"},
		{16 << 10, "L1"},
		{64 << 10, "L2"},
		{256 << 10, "L2"},
		{2 << 20, "memory"},
		{4 << 20, "memory"},
	}
	out := newOutput("working set", "mean load latency (cyc)", "level")
	for _, set := range sets {
		lat, err := loadLatency(set.ws, uint64(stride))
		if err != nil {
			return nil, err
		}
		out.row(fmt.Sprintf("%dK", set.ws>>10), lat, set.level)
		out.key(fmt.Sprintf("lat_%dk", set.ws>>10), lat)
	}
	return out.done()
}

// loadLatency measures the steady-state mean latency of strided loads over a
// working set: one warm-up pass, then the difference between an (N+1)-pass
// and a 1-pass run divided by the extra loads.
func loadLatency(ws, stride uint64) (float64, error) {
	const extraPasses = 2
	run := func(passes int) (int64, int, error) {
		var tr []ops.Op
		for p := 0; p < passes; p++ {
			for a := uint64(0); a < ws; a += stride {
				tr = append(tr, ops.NewLoad(ops.MemWord, 0x1000_0000+a))
			}
		}
		res, err := point{name: fmt.Sprintf("ws=%d", ws), cfg: machine.PPC601Machine(), drive: runOps(tr)}.run()
		if err != nil {
			return 0, 0, err
		}
		return int64(res.Cycles), len(tr), nil
	}
	warmCyc, _, err := run(1)
	if err != nil {
		return 0, err
	}
	fullCyc, fullLoads, err := run(1 + extraPasses)
	if err != nil {
		return 0, err
	}
	extraLoads := fullLoads * extraPasses / (1 + extraPasses)
	return float64(fullCyc-warmCyc) / float64(extraLoads), nil
}
