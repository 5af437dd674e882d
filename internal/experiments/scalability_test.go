package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ptffedrec/internal/data"
)

func TestRunScalability(t *testing.T) {
	o := testOptions()
	o.ProfilesOverride = []data.Profile{data.Tiny}
	res, err := RunScalability(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("a variant's history differs from the reference's")
	}

	// Every variant of the small-profile table is present, the production
	// reference first, the worker sweep including workers=1.
	want := map[string]bool{"production": true, "sequential": true, "disperse-scalar": true,
		"eval-single-user": true, "map-store": true, "full-graph": true, "net": true, "net-sequential": true}
	got := map[string]bool{}
	sweptOne := false
	for _, row := range res.Rows {
		got[row.Variant] = true
		sweptOne = sweptOne || (row.Variant == "production" && row.Workers == 1)
	}
	for name := range want {
		if !got[name] {
			t.Fatalf("variant %q missing from %+v", name, res.Rows)
		}
	}
	if !sweptOne {
		t.Fatal("worker sweep has no workers=1 production row")
	}
	if ref := res.Rows[0]; ref.Variant != "production" || ref.Workers != res.GOMAXPROCS || ref.RefSpeedup != 1 {
		t.Fatalf("first row %+v is not the production reference", ref)
	}

	for _, row := range res.Rows {
		if row.RoundSecs <= 0 || row.RefSpeedup <= 0 || row.PeakHeapBytes == 0 {
			t.Fatalf("row %+v missing its timing", row)
		}
		switch row.Driver {
		case "inproc":
			// The LightGCN server guarantees non-zero graph and SGD phases.
			if row.ClientSecs <= 0 || row.GraphSecs <= 0 || row.ServerTrainSecs <= 0 || row.DisperseSecs <= 0 {
				t.Fatalf("row %+v missing per-phase timings", row)
			}
			if row.EvalSecs <= 0 || (row.GraphEngineBytes <= 0 && row.Variant != "full-graph") {
				t.Fatalf("row %+v missing eval timing or graph footprint", row)
			}
			if row.Recall != res.Rows[0].Recall || row.NDCG != res.Rows[0].NDCG {
				t.Fatalf("row %+v metrics differ from the reference %+v", row, res.Rows[0])
			}
		case "loopback":
			if row.WireBytes <= 0 {
				t.Fatalf("row %+v missing wire bytes", row)
			}
		default:
			t.Fatalf("row %+v has unknown driver", row)
		}
	}

	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "every variant's history identical to the reference: true") {
		t.Fatalf("unexpected report:\n%s", buf.String())
	}

	// The -json path serialises the result verbatim; it must round-trip.
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back ScalabilityResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Profile != res.Profile || len(back.Rows) != len(res.Rows) {
		t.Fatalf("JSON round-trip mismatch: %+v vs %+v", back, res)
	}
}
