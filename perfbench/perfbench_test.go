package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/server"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, gen := range []struct {
		name string
		f    func(seed int64) (*inputs, error)
	}{
		{"batch", func(seed int64) (*inputs, error) { return batchInputs(20, seed), nil }},
		{"served", func(seed int64) (*inputs, error) { return servedInputs(20, seed, servedMachine) }},
	} {
		a, err := gen.f(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen.f(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen.f(8)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != b.Hash || a.Manifest != b.Manifest {
			t.Errorf("%s: seed 7 generated two different input sets", gen.name)
		}
		if a.Hash == c.Hash {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", gen.name)
		}
		spec := corpus.Spec{Count: 20, Seed: 7}
		cunits, err := corpus.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := corpus.BuildManifest(spec, cunits).SHA256; a.Manifest != want {
			t.Errorf("%s: manifest %s, corpus.Generate gives %s", gen.name, a.Manifest, want)
		}
	}
}

func TestSelfTimesNested(t *testing.T) {
	r := newRecorder()
	at := func(ns int64) time.Time { return r.origin.Add(time.Duration(ns)) }
	op := r.add(0, "op", at(0), at(100), 0)
	a := r.add(op, "a", at(10), at(60), 0)
	r.add(a, "a1", at(10), at(30), 0)
	r.add(a, "a2", at(20), at(40), 0) // overlaps a1: covered once
	r.add(op, "b", at(50), at(90), 0) // overlaps a: clipped by the union
	r.finish()
	want := map[string]int64{"op": 20, "a": 20, "a1": 20, "a2": 20, "b": 40}
	for _, s := range r.spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

// TestLedgerSelfTimesSumToOp checks on real ledger spans that the
// layers' self times of each op add up to no more than the op's
// end-to-end time.
func TestLedgerSelfTimesSumToOp(t *testing.T) {
	in, err := servedInputs(6, 7, servedMachine)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := servedOptions(in)
	if err != nil {
		t.Fatal(err)
	}
	var units []unit
	for i := len(in.Kernels); i < len(in.Units); i++ {
		u := in.Units[i]
		if u.Body, err = in.request(i); err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	for _, path := range []ledgerPath{pathAlloc, pathHit, pathMiss} {
		lr, err := runLedger(path, opts, units)
		if err != nil {
			t.Fatal(err)
		}
		if lr.ops != len(units) {
			t.Fatalf("path %d: %d ops for %d units", path, lr.ops, len(units))
		}
		sum := map[int]int64{}
		dur := map[int]int64{}
		for _, s := range lr.rec.spans {
			if s.Self < 0 {
				t.Errorf("path %d: span %s has negative self time %d", path, s.Name, s.Self)
			}
			sum[s.Op] += s.Self
			if s.Parent == 0 {
				dur[s.Op] = s.End - s.Start
			}
		}
		for op, d := range dur {
			if sum[op] > d {
				t.Errorf("path %d: op %d: self times sum to %dns, op took %dns", path, op, sum[op], d)
			}
		}
	}
}

// servedResponse allocates u in process and shapes the answer as
// rallocd would.
func servedResponse(t *testing.T, u unit, opts core.Options) *server.AllocateResponse {
	t.Helper()
	resp := &server.AllocateResponse{}
	routines, err := u.parse()
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range routines {
		res, err := core.Allocate(context.Background(), rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		resp.Results = append(resp.Results, server.UnitResponse{
			Name: rt.Name, Code: iloc.Print(res.Routine), Verified: true, FrameWords: res.Routine.FrameWords,
		})
	}
	return resp
}

func TestBadRepliesRaiseFailRate(t *testing.T) {
	in, err := servedInputs(40, 7, servedMachine)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := servedOptions(in)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machines.Lookup(servedMachine)
	if err != nil {
		t.Fatal(err)
	}
	u := in.Units[len(in.Kernels)]
	good := servedResponse(t, u, opts)
	if err := checkResponse(good, u, cacheMiss); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	if _, err := checkCode(good, u, m); err != nil {
		t.Fatalf("good code rejected: %v", err)
	}

	unverified := servedResponse(t, u, opts)
	unverified.Results[0].Verified = false
	if err := checkResponse(unverified, u, cacheMiss); err == nil {
		t.Error("unverified reply accepted")
	}

	// A wrong answer: every integer constant off by one, in a routine
	// the interpreter differential runs on (no params, no calls).
	var eligible *unit
	j := 0
	for i := len(in.Kernels); i < len(in.Units) && eligible == nil; i++ {
		routines, err := in.Units[i].parse()
		if err != nil {
			t.Fatal(err)
		}
		for k, rt := range routines {
			if share, _ := differentialEligible([]unit{{Routines: []*iloc.Routine{rt}}}); share == 1 {
				eligible, j = &in.Units[i], k
				break
			}
		}
	}
	if eligible == nil {
		t.Fatal("no differential-eligible routine in the corpus")
	}
	wrong := servedResponse(t, *eligible, opts)
	ldi := regexp.MustCompile(`(ldi r\d+, )(-?\d+)`)
	wrong.Results[j].Code = ldi.ReplaceAllStringFunc(wrong.Results[j].Code, func(s string) string {
		m := ldi.FindStringSubmatch(s)
		n, _ := strconv.Atoi(m[2])
		return m[1] + strconv.Itoa(n+1)
	})
	if _, err := checkCode(wrong, *eligible, m); err == nil {
		t.Error("wrong code accepted")
	}
	if err := checkResponse(good, u, cacheHit); err == nil {
		t.Error("a miss accepted in a phase built to be all hits")
	}

	// Through the run's accounting: one bad reply out of three.
	replies := []reply{{unit: len(in.Kernels), resp: good}, {unit: len(in.Kernels), resp: unverified}, {unit: len(in.Kernels), resp: good}}
	checkAll(replies, in, m, cacheMiss, true)
	o := newOutcome()
	if err := servedE2E(o, in, phase{replies: replies, elapsed: time.Second}); err == nil {
		t.Error("three latency samples passed as enough for p99")
	}
	if o.attempted != 3 || o.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", o.attempted, o.failed)
	}

	// A suite kernel whose allocated code computes the wrong answer.
	bin := batchInputs(1, 7)
	o = newOutcome()
	k0, k1 := bin.Kernels[0], bin.Kernels[1]
	if _, err := kernelCycles(o, &inputs{Kernels: []kernelRef{k0}}, m, func(kernelRef) (*iloc.Routine, []*iloc.Routine) {
		res, err := core.Allocate(context.Background(), k1.Kernel.Routine(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Routine, nil
	}); err != nil {
		t.Fatal(err)
	}
	if o.failed != 1 {
		t.Errorf("a kernel running another kernel's code was not counted as failed")
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name     string
		declared []struct{ Name, Unit string }
		printed  map[string]string
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(set.declared) != len(set.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", set.name, len(set.declared), len(set.printed))
		}
		for _, d := range set.declared {
			if set.printed[d.Name] != d.Unit {
				t.Errorf("%s: %s declared in %q, printed in %q", set.name, d.Name, d.Unit, set.printed[d.Name])
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %s; the program runs %d", strings.Join(names, ", "), len(workloads))
	}
}
