package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/server"
	"repro/internal/suite"
)

// unit is the input of one op: one routine on batch-cold, one POST
// /v1/allocate request (a program: main routine first, then callees)
// on the served workloads.
type unit struct {
	Name string
	Text string // ILOC source of the program
	N    int    // routines in Text
	// Body is the request body, filled only for the ledger's sample;
	// inputs.request builds it for the load generator.
	Body []byte
	// Routines is Text parsed, main first, kept only on batch-cold. A
	// parsed corpus is pointer-heavy: held through a served timed phase
	// it would make the load generator's garbage collector compete with
	// the daemons for the CPUs. parse rebuilds it when a check needs it.
	Routines []*iloc.Routine
}

// parse returns the unit's routines, main first.
func (u *unit) parse() ([]*iloc.Routine, error) {
	if u.Routines != nil {
		return u.Routines, nil
	}
	return iloc.ParseProgram(u.Text)
}

// kernelRef locates one suite kernel among the units: on batch-cold
// its main and each callee are separate units, when served the whole
// program is one unit.
type kernelRef struct {
	Kernel  *suite.Kernel
	Main    int   // unit index of the kernel's routine
	Callees []int // unit indices of its callees (batch-cold only)
}

// inputs is everything a workload sends the program, generated from
// the seed alone.
type inputs struct {
	Spec     string // canonical corpus spec
	Manifest string // corpus manifest hash (corpus.BuildManifest)
	Hash     string // hash over every unit's name and text, kernels included
	Units    []unit
	Kernels  []kernelRef
	Routines int
	// Options are what every served request asks for.
	Options *server.OptionsRequest
}

// request returns unit i's POST /v1/allocate body. Bodies are built
// per request, not kept: kept for a whole proxy-miss corpus they would
// double the load generator's memory.
func (in *inputs) request(i int) ([]byte, error) {
	return json.Marshal(server.AllocateRequest{ILOC: in.Units[i].Text, Options: in.Options})
}

// batchInputs builds batch-cold's batch: the generated corpus with
// default knobs, one unit per routine, then every suite kernel and its
// callees.
func batchInputs(count int, seed int64) *inputs {
	perUnit := make([][]*iloc.Routine, count)
	in := generate(count, seed, func(i int, u corpus.Unit) { perUnit[i] = u.Routines })
	for _, routines := range perUnit {
		for _, rt := range routines {
			in.Units = append(in.Units, unit{Name: rt.Name, Text: iloc.Print(rt), N: 1, Routines: []*iloc.Routine{rt}})
		}
	}
	for _, k := range suite.All() {
		ref := kernelRef{Kernel: k, Main: len(in.Units)}
		rt := k.Routine()
		in.Units = append(in.Units, unit{Name: k.Name, Text: k.Source, N: 1, Routines: []*iloc.Routine{rt}})
		for i, c := range k.CalleeRoutines() {
			ref.Callees = append(ref.Callees, len(in.Units))
			in.Units = append(in.Units, unit{Name: fmt.Sprintf("%s/callee%d", k.Name, i), Text: k.Callees[i], N: 1, Routines: []*iloc.Routine{c}})
		}
		in.Kernels = append(in.Kernels, ref)
	}
	in.finish()
	return in
}

// servedInputs builds a served workload's requests: every suite kernel
// as one program (first, so warm-up serves them), then one request per
// corpus unit, all allocated with strategy remat on the named machine.
func servedInputs(count int, seed int64, machine string) (*inputs, error) {
	kernels := suite.All()
	units := make([]unit, len(kernels)+count)
	in := generate(count, seed, func(i int, u corpus.Unit) {
		units[len(kernels)+i] = unit{Name: u.Name, Text: u.Text, N: len(u.Routines)}
	})
	in.Units = units
	in.Options = &server.OptionsRequest{Machine: machine, Strategy: "remat"}
	for i, k := range kernels {
		text := strings.Join(append([]string{k.Source}, k.Callees...), "\n")
		routines, err := iloc.ParseProgram(text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		in.Kernels = append(in.Kernels, kernelRef{Kernel: k, Main: i})
		units[i] = unit{Name: k.Name, Text: text, N: len(routines)}
	}
	in.finish()
	return in, nil
}

// generate builds the corpus on the benchmark's workers, handing each
// unit to each as it is made: units are order-free
// (corpus.GenerateUnit), so this gives exactly what corpus.Generate
// does, without holding every parsed routine at once. A large parsed
// corpus costs gigabytes.
func generate(count int, seed int64, each func(i int, u corpus.Unit)) *inputs {
	spec := corpus.Spec{Count: count, Seed: seed}
	// The manifest hash covers only the spec and each unit's name and
	// text hash.
	ids := make([]corpus.Unit, count)
	parallel(count, func(i int) {
		u := corpus.GenerateUnit(spec, i)
		each(i, u)
		ids[i] = corpus.Unit{Name: u.Name, SHA256: u.SHA256}
	})
	m := corpus.BuildManifest(spec, ids)
	return &inputs{Spec: m.Spec, Manifest: m.SHA256}
}

func (in *inputs) finish() {
	h := sha256.New()
	for _, u := range in.Units {
		in.Routines += u.N
		fmt.Fprintf(h, "%s\x00%s\x00", u.Name, u.Text)
	}
	in.Hash = hex.EncodeToString(h.Sum(nil))
}

// differentialEligible is the share of input routines the verifier's
// interpreter differential can run on: no parameters and no calls.
func differentialEligible(units []unit) (float64, error) {
	var n, ok int
	for _, u := range units {
		routines, err := u.parse()
		if err != nil {
			return 0, err
		}
		for _, rt := range routines {
			n++
			if len(rt.Params) > 0 {
				continue
			}
			calls := false
			rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
				calls = calls || in.Op.IsCall()
			})
			if !calls {
				ok++
			}
		}
	}
	return float64(ok) / float64(n), nil
}
