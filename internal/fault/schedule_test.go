package fault

import (
	"testing"

	"mermaid/internal/pearl"
)

func TestWindowValidate(t *testing.T) {
	good := []Window{{From: 0}, {From: 0, To: 10}, {From: 5, To: 6}}
	for _, w := range good {
		if err := w.validate(); err != nil {
			t.Errorf("window %+v: %v", w, err)
		}
	}
	bad := []Window{{From: -1}, {From: 0, To: -2}, {From: 10, To: 10}, {From: 10, To: 5}}
	for _, w := range bad {
		if err := w.validate(); err == nil {
			t.Errorf("window %+v accepted", w)
		}
	}
}

func TestWindowClip(t *testing.T) {
	// Forever window clips to the run end.
	if from, to, ok := (Window{From: 10}).clip(100); !ok || from != 10 || to != 100 {
		t.Errorf("clip forever = [%d,%d) ok=%v", from, to, ok)
	}
	// Window entirely past the run end vanishes.
	if _, _, ok := (Window{From: 200, To: 300}).clip(100); ok {
		t.Error("past-the-end window survived clipping")
	}
	// Bounded window inside the run is untouched.
	if from, to, ok := (Window{From: 10, To: 20}).clip(100); !ok || from != 10 || to != 20 {
		t.Errorf("clip bounded = [%d,%d) ok=%v", from, to, ok)
	}
}

func TestRetransDefaultsAndDelay(t *testing.T) {
	var r Retrans
	if err := r.validate(); err != nil || r != (Retrans{Timeout: 500, Backoff: 2, MaxRetries: 16}) {
		t.Fatalf("validated zero Retrans = %+v (%v)", r, err)
	}
	r = Retrans{Timeout: 100, Backoff: 3, MaxRetries: 4}
	if d := r.Delay(1); d != 100 {
		t.Errorf("Delay(1) = %d, want 100", d)
	}
	if d := r.Delay(3); d != 900 {
		t.Errorf("Delay(3) = %d, want 900", d)
	}
	// The exponent caps: far-out attempts share one finite delay.
	if r.Delay(1000) != r.Delay(100) || r.Delay(1000) <= 0 {
		t.Errorf("capped delay = %d vs %d", r.Delay(1000), r.Delay(100))
	}
}

func TestScheduleEmpty(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Error("nil schedule not empty")
	}
	// Retransmission parameters alone are inert.
	if !(&Schedule{Retrans: Retrans{Timeout: 10}}).Empty() {
		t.Error("retrans-only schedule not empty")
	}
	if (&Schedule{Nodes: []NodeFault{{Node: 0}}}).Empty() {
		t.Error("node-fault schedule reported empty")
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []*Schedule{
		{Links: []LinkFault{{A: 0, B: 9}}},                                 // node out of range
		{Links: []LinkFault{{A: 1, B: 1}}},                                 // self link
		{Links: []LinkFault{{A: 0, B: 1, Window: Window{From: 5, To: 5}}}}, // empty window
		{Nodes: []NodeFault{{Node: -1}}},
		{Noise: []LinkNoise{{A: 0, B: 0}}},
		{Noise: []LinkNoise{{A: -1, B: -1, Drop: 0.8, Corrupt: 0.5}}}, // p > 1
		{Nodes: []NodeFault{{Node: 0}}, Retrans: Retrans{Backoff: -1}},
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Errorf("schedule %d accepted", i)
		}
	}
	good := &Schedule{
		Links:   []LinkFault{{A: 0, B: 1, Window: Window{From: 10, To: 20}}},
		Nodes:   []NodeFault{{Node: 3, Window: Window{From: 5}}},
		Noise:   []LinkNoise{{A: -1, B: -1, Drop: 0.01, Corrupt: 0.01}},
		Retrans: Retrans{Timeout: 100, Backoff: 2, MaxRetries: 8},
	}
	if err := good.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule([]byte(`{
		"links": [{"a": 0, "b": 1, "from": 1000, "to": 2000}],
		"nodes": [{"node": 2, "from": 500}],
		"noise": [{"a": -1, "b": -1, "drop": 0.01}],
		"retrans": {"timeout": 200, "backoff": 2, "maxRetries": 8}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Links) != 1 || s.Links[0].To != pearl.Time(2000) {
		t.Fatalf("links = %+v", s.Links)
	}
	if len(s.Nodes) != 1 || s.Nodes[0].To != 0 {
		t.Fatalf("nodes = %+v", s.Nodes)
	}
	if s.Retrans.Timeout != 200 {
		t.Fatalf("retrans = %+v", s.Retrans)
	}
	if _, err := ParseSchedule([]byte(`{"bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSchedule([]byte(`{"links": []} trailing`)); err == nil {
		t.Error("trailing garbage accepted")
	}
}
