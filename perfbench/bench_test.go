package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShortRun runs every workload for two timed seconds against a real
// xserve, with the traced replay, and checks that the oracle passes and
// that every metric is computed with its unit.
func TestShortRun(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: root, bin: bin, seed: 3, seconds: 2, setups: 1, conns: 2, trace: true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d notes=%v", res.Correct, res.Failed, res.Attempted, res.notes)
			}
			for _, m := range metricDefs {
				if _, ok := res.values[m.name]; !ok || m.unit == "" {
					t.Errorf("metric %s missing or without unit", m.name)
				}
			}
			if w.fsync != "" && res.table.rows["store.update.unspanned"]+res.table.rows["store.create"] == 0 {
				t.Errorf("no store rows in the traced table: %v", res.table.rows)
			}
		})
	}
}

// inProcessLog runs a workload's seeded sequence in process and returns
// its records, as the oracle sees them after an HTTP run.
func inProcessLog(t *testing.T, name string, open int) *runner {
	t.Helper()
	w, _ := lookupWorkload(name)
	r, err := replayInProcess(w, 5, 2, w.warm, []int{open, open}, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	return r.d
}

// copyLog deep-copies records so a mutation leaves the original intact.
func copyLog(log [][]*rec) [][]*rec {
	out := make([][]*rec, len(log))
	for c, l := range log {
		for _, r := range l {
			cp, resp := *r, *r.resp
			cp.resp = &resp
			out[c] = append(out[c], &cp)
		}
	}
	return out
}

// TestOracleFlagsMutations feeds the document oracle a corrupted digest
// and a 409 flipped to 200, and the detection oracle a flipped verdict;
// each must be flagged on the mutated record.
func TestOracleFlagsMutations(t *testing.T) {
	d := inProcessLog(t, "admit-window", 150)
	if rep := checkDocs(copyLog(d.log), nil, nil, 2); rep.bad+rep.extra != 0 {
		t.Fatalf("clean log flagged: %v", rep.notes)
	}
	find := func(log [][]*rec, ok func(*rec) bool) *rec {
		for _, l := range log {
			for _, r := range l {
				if r.phase == phaseOpen && ok(r) {
					return r
				}
			}
		}
		t.Fatal("no record to mutate")
		return nil
	}

	log := copyLog(d.log)
	r := find(log, func(r *rec) bool { return r.req.kind == "insert" && r.resp.status == 200 })
	r.resp.digest = strings.Repeat("0", 64)
	checkDocs(log, nil, nil, 2)
	if !r.bad {
		t.Error("corrupted digest not flagged")
	}

	log = copyLog(d.log)
	r = find(log, func(r *rec) bool { return r.resp.status == 409 })
	r.resp.status, r.resp.reason = 200, ""
	checkDocs(log, nil, nil, 2)
	if !r.bad || !strings.Contains(r.note, "conflicts with lsn") {
		t.Errorf("409 flipped to 200 not flagged as a bad admission: bad=%v note=%q", r.bad, r.note)
	}

	dd := inProcessLog(t, "detect-mix", 100)
	recs := dd.records(phaseWarm, phaseOpen)
	if rep := checkDetect(recs, 2); rep.bad != 0 {
		t.Fatalf("clean detection log flagged: %v", rep.notes)
	}
	for _, r := range recs {
		if r.req.kind == "detect" && r.req.cold {
			r.resp.verdicts[0].conflict = !r.resp.verdicts[0].conflict
			checkDetect(recs, 2)
			if !r.bad {
				t.Error("flipped detection verdict not flagged")
			}
			return
		}
	}
	t.Fatal("no cold detect record")
}

// TestOutcomesRepeat checks that a fixed seed fixes the 200/409
// sequence: two in-process runs of admit-window agree op for op.
func TestOutcomesRepeat(t *testing.T) {
	a := inProcessLog(t, "admit-window", 120)
	b := inProcessLog(t, "admit-window", 120)
	if diff := sameOutcomes(a, b); diff != 0 {
		t.Fatalf("%d outcomes differ between two runs of one seed", diff)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the metric and
// workload tables of this package.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
		if rate := fmt.Sprintf("open loop %g/s", workloads[i].rate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why does not state %q", w.Name, rate)
		}
	}
	listed := map[string]string{}
	for _, m := range spec.EndToEnd {
		listed[m.Name] = "e2e " + m.Unit
	}
	for _, m := range spec.PerLayer {
		listed[m.Name] = "layer " + m.Unit
	}
	for _, m := range metricDefs {
		want := "layer " + m.unit
		if m.e2e {
			want = "e2e " + m.unit
		}
		if listed[m.name] != want {
			t.Errorf("%s: BENCHMARK.json has %q, the code %q", m.name, listed[m.name], want)
		}
		delete(listed, m.name)
	}
	for n := range listed {
		t.Errorf("%s is in BENCHMARK.json but not computed", n)
	}
}
