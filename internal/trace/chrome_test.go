package trace

import (
	"encoding/json"
	"testing"
	"time"
)

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(Config{})
	base := time.Now()

	// Two handshake traces whose get_client_kx steps feed one batch.
	var refs []Ref
	for i := 0; i < 2; i++ {
		ct := begin(tr, uint64(10+i))
		hs := ct.Begin("handshake", CatConn, 0)
		step := ct.Begin("get_client_kx", CatStep, hs)
		refs = append(refs, ct.Ref())
		ct.End(step, 2*time.Millisecond)
		ct.End(hs, -1)
		ct.Finish("ok")
	}
	tr.EngineSpan("rsa_batch", "size=2", base, 4*time.Millisecond, refs)

	b, err := tr.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  uint64         `json:"pid"`
			TID  uint64         `json:"tid"`
			BP   string         `json:"bp"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var complete, meta, flowS, flowF, engine int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Cat == CatEngine {
				engine++
				if e.PID != chromePIDEngine {
					t.Errorf("engine span on pid %d", e.PID)
				}
				links, ok := e.Args["links"].([]any)
				if !ok || len(links) != 2 {
					t.Errorf("engine span links = %v", e.Args["links"])
				}
			} else if e.PID != chromePIDConns {
				t.Errorf("%s span on pid %d", e.Cat, e.PID)
			}
		case "M":
			meta++
		case "s":
			flowS++
		case "f":
			flowF++
			if e.BP != "e" {
				t.Errorf("flow finish without bp=e")
			}
		}
	}
	if complete != 5 { // 2×(handshake+step) + 1 batch
		t.Fatalf("complete events = %d, want 5", complete)
	}
	if engine != 1 {
		t.Fatalf("engine spans = %d, want 1", engine)
	}
	// One flow arrow per linked handshake span.
	if flowS != 2 || flowF != 2 {
		t.Fatalf("flow events = %d starts / %d finishes, want 2/2", flowS, flowF)
	}
	if meta < 4 { // 2 process names + rsabatch thread + ≥2 conn threads... at least 4
		t.Fatalf("metadata events = %d", meta)
	}
}

func TestChromeEmptyTracerLoads(t *testing.T) {
	b, err := NewTracer(Config{}).Chrome()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("no traceEvents key")
	}
}
