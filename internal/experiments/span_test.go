package experiments

import (
	"encoding/json"
	"testing"
)

func TestMeasureSpanCapturesDetections(t *testing.T) {
	v, err := MeasureSpan("E3", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "bench.E3" {
		t.Fatalf("trace name = %q", v.Name)
	}
	if n := len(v.Root.Find("detect")); n == 0 {
		t.Fatalf("representative iteration produced no detect spans (%d root children)", len(v.Root.Children))
	}
	// The package-level context must be cleared afterwards so timed
	// measurements stay span-free.
	if spanCtx != nil {
		t.Fatal("spanCtx leaked past MeasureSpan")
	}
	// And the view must serialize: it is embedded in BENCH files.
	if _, err := json.Marshal(v); err != nil {
		t.Fatalf("span view does not serialize: %v", err)
	}
}

func TestMeasureSpanUnknownID(t *testing.T) {
	if _, err := MeasureSpan("E999", 1); err == nil {
		t.Fatal("unknown experiment: want error")
	}
	if spanCtx != nil {
		t.Fatal("spanCtx leaked past failed MeasureSpan")
	}
}
