package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/target"
	"repro/internal/verify"
)

// batchCount is batch-cold's corpus size in generation units; at the
// default corpus knobs it gives about 3800 routines.
const batchCount = 1500

// batchRegs is batch-cold's register count: the calibrated pressure
// point of Table 1 and driverbench.
const batchRegs = 6

// runBatchCold measures an in-process driver.Engine with no cache and
// the verifier on, allocating the whole batch again and again until the
// phase ends. Each batch is timed on its own; ops_per_s and the
// per-op allocation figures are medians over batches.
func runBatchCold(cfg *config) (*outcome, error) {
	m := target.WithRegs(batchRegs)
	opts := core.Options{Machine: m, Strategy: "remat", Verify: true}
	o := newOutcome()

	var in *inputs
	var setups []float64
	for i := 0; i < setupReps; i++ {
		prev := in
		start := time.Now()
		in = batchInputs(batchCount, cfg.seed)
		d := time.Since(start)
		if prev != nil && prev.Hash != in.Hash {
			return nil, fmt.Errorf("seed %d generated two different batches", cfg.seed)
		}
		setups = append(setups, d.Seconds())
	}
	units := make([]driver.Unit, len(in.Units))
	for i, u := range in.Units {
		units[i] = driver.Unit{Name: u.Name, Routine: u.Routines[0]}
	}
	workers := loadWorkers()

	var ws []window
	var allocsPer, bytesPer, util []float64
	var last *driver.Batch
	end := time.Now().Add(cfg.phase())
	for last == nil || time.Now().Before(end) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b := driver.New(driver.Config{Options: opts, Workers: workers}).Run(context.Background(), units)
		runtime.ReadMemStats(&m1)
		n := float64(len(units))
		w := window{width: b.Stats.Wall}
		allocsPer = append(allocsPer, float64(m1.Mallocs-m0.Mallocs)/n)
		bytesPer = append(bytesPer, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		for _, pw := range b.Stats.PerWorker {
			util = append(util, pw.Utilization(b.Stats.Wall))
		}
		for _, r := range b.Results {
			w.lat = append(w.lat, ms(r.Wall))
			o.attempted++
			switch {
			case r.Err != nil:
				o.fail("%s: %v", r.Name, r.Err)
			case r.Result.Degraded:
				o.fail("%s: degraded: %s", r.Name, r.Result.DegradeReason)
			default:
				w.ok++
			}
		}
		ws = append(ws, w)
		last = b
	}
	// The allocator is deterministic, so the last batch stands for all
	// of them: check every result independently, then run the suite
	// kernels against their Go references.
	checkBatch(o, in, last, m)
	allocated := func(i int) *iloc.Routine {
		if r := last.Results[i].Result; r != nil {
			return r.Routine
		}
		return nil
	}
	cycles, err := kernelCycles(o, in, m, func(k kernelRef) (*iloc.Routine, []*iloc.Routine) {
		var callees []*iloc.Routine
		for _, c := range k.Callees {
			callees = append(callees, allocated(c))
		}
		return allocated(k.Main), callees
	})
	if err != nil {
		return nil, err
	}

	if err := summarize(o, ws); err != nil {
		return nil, err
	}
	o.e2e["allocs_per_op"] = median(allocsPer)
	o.e2e["bytes_per_op"] = median(bytesPer)
	o.e2e["code_cycles"] = float64(cycles)
	o.e2e["setup_s"] = median(setups)
	o.shape["corpus_spec"] = in.Spec
	o.shape["corpus_manifest"] = in.Manifest
	o.shape["inputs_hash"] = in.Hash
	o.shape["routines"] = in.Routines
	o.shape["machine"] = fmt.Sprintf("regs=%d", batchRegs)
	o.shape["machine_shape"] = machines.ShapeKey(m)
	o.shape["strategy"] = opts.Canonical().Strategy
	o.shape["workers"] = workers
	o.shape["batches"] = len(ws)
	o.shape["latency_samples"] = o.attempted
	o.shape["l1_capacity"] = 0
	o.shape["working_set_routines"] = in.Routines

	if cfg.trace {
		if err := traceLayers(o, pathAlloc, opts, in, 0); err != nil {
			return nil, err
		}
		o.layers["driver.worker_util"] = mean(util)
		zeroLayers(o, "server.", "cluster.relay_ms", "cluster.retries", "cluster.owner_share")
	}
	return o, nil
}

// checkBatch runs verify.Check, interpreter differential on, over every
// result of the batch, on the benchmark's own workers.
func checkBatch(o *outcome, in *inputs, b *driver.Batch, m *target.Machine) {
	errs := make([]error, len(b.Results))
	parallel(len(b.Results), func(i int) {
		if r := b.Results[i].Result; r != nil {
			errs[i] = verify.Check(in.Units[i].Routines[0], r.Routine, m, verify.Options{Differential: true})
		}
	})
	for i, err := range errs {
		if err != nil {
			o.fail("%s: %v", in.Units[i].Name, err)
		}
	}
}

// kernelCycles runs every allocated suite kernel on the interpreter,
// checks it against the kernel's Go reference, and sums the dynamic
// cycles under the machine's cost model. allocated returns a kernel's
// allocated routine and callees.
func kernelCycles(o *outcome, in *inputs, m *target.Machine, allocated func(kernelRef) (*iloc.Routine, []*iloc.Routine)) (int64, error) {
	var total int64
	for _, k := range in.Kernels {
		main, callees := allocated(k)
		if main == nil {
			o.fail("kernel %s: no verified allocation to run", k.Kernel.Name)
			continue
		}
		out, err := k.Kernel.ExecuteWith(main, callees)
		if err != nil {
			o.fail("kernel %s: %v", k.Kernel.Name, err)
			continue
		}
		total += out.Cycles(int64(m.MemCycles), int64(m.OtherCycles))
	}
	return total, nil
}

// parallel calls f(0..n-1) on loadWorkers goroutines and waits.
func parallel(n int, f func(int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < loadWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// traceLayers runs the ledger over an even sample of the units from
// index from on and fills the in-process per-layer metrics, the exact
// allocation counts and the tracing overhead.
func traceLayers(o *outcome, path ledgerPath, opts core.Options, in *inputs, from int) error {
	const sample = 400
	var picked []unit
	stride := max(1, (len(in.Units)-from)/sample)
	for i := from; i < len(in.Units) && len(picked) < sample; i += stride {
		u := in.Units[i]
		if in.Options != nil {
			var err error
			if u.Body, err = in.request(i); err != nil {
				return err
			}
		}
		picked = append(picked, u)
	}
	lr, err := runLedger(path, opts, picked)
	if err != nil {
		return err
	}
	for k, v := range lr.metrics {
		o.layers[k] = v
	}
	var iters, spilled, remat, edges, routines float64
	for _, res := range lr.results {
		routines++
		iters += float64(len(res.Iterations))
		spilled += float64(res.SpilledRanges)
		remat += float64(res.RematSpills)
		for _, it := range res.Iterations {
			for _, ps := range it.Passes {
				if ps.Name == "build" {
					edges += float64(ps.Edges)
				}
			}
		}
	}
	o.layers["core.iterations_per_routine"] = iters / routines
	o.layers["core.spilled_per_routine"] = spilled / routines
	o.layers["core.remat_share"] = 0
	if spilled > 0 {
		o.layers["core.remat_share"] = remat / spilled
	}
	o.layers["core.ig_edges_per_routine"] = edges / routines
	if o.layers["verify.differential_eligible_share"], err = differentialEligible(picked); err != nil {
		return err
	}
	o.layers["trace.overhead_pct"] = lr.overheadP
	o.shape["ledger_ops"] = lr.ops
	o.rec = lr.rec
	return nil
}

// zeroLayers reports 0 for the per-layer metrics, named exactly or by
// prefix, of layers this workload's ops never cross.
func zeroLayers(o *outcome, names ...string) {
	for name := range perLayer {
		for _, n := range names {
			if name == n || (strings.HasSuffix(n, ".") && strings.HasPrefix(name, n)) {
				o.layers[name] = 0
			}
		}
	}
}
