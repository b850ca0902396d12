package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/verify"
)

// The ledger prices the in-process layers of one workload's op. It
// replays a sample of the workload's units through the public
// functions the op crosses, in the op's order, and records a span
// around every call from this file. The program stays a black box:
// the per-pass figures come from the Result core.Allocate returns.

// ledgerPath is the sequence of layer calls one op makes.
type ledgerPath int

const (
	// pathAlloc is batch-cold's op: allocate a routine, then check it
	// with the interpreter differential on (what a cacheless verified
	// driver.Engine does per unit).
	pathAlloc ledgerPath = iota
	// pathHit is serve-hit's op: parse the request's ILOC, key each
	// routine, get it from a warm L1, print the result.
	pathHit
	// pathMiss is proxy-miss's op: the proxy's routing key, then the
	// backend's parse, key, L1 miss, allocate, verify, L1 put, print.
	pathMiss
)

// passNames are the allocator passes a remat allocation reports.
var passNames = []string{"cfa", "renumber", "build", "coalesce", "coalesce-cons", "costs",
	"spill-profitable", "simplify", "select", "rewrite", "spill"}

type ledger struct {
	path  ledgerPath
	opts  core.Options // allocation options, Verify off: verify.Check is priced on its own
	cache *driver.Cache
	proxy *cluster.Proxy
	rec   *recorder // nil: run the calls without spans

	routines int            // routines allocated (pathAlloc, pathMiss)
	results  []*core.Result // allocations made, for the exact counts
}

func newLedger(path ledgerPath, opts core.Options) (*ledger, error) {
	opts.Verify = false
	l := &ledger{path: path, opts: opts, cache: driver.NewCache(0)}
	if path == pathMiss {
		// No Start: the proxy is only asked for routing keys, never to
		// forward, so it needs no live backends.
		p, err := cluster.New(cluster.Config{Backends: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
		if err != nil {
			return nil, err
		}
		l.proxy = p
	}
	return l, nil
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// call runs f, under a span named name when the ledger is traced.
func (l *ledger) call(parent int, name string, f func()) int {
	if l.rec == nil {
		f()
		return 0
	}
	m0 := mallocs()
	start := time.Now()
	f()
	end := time.Now()
	return l.rec.add(parent, name, start, end, mallocs()-m0)
}

// warm fills the ledger's cache with every routine of units, untimed,
// so pathHit ops find them.
func (l *ledger) warm(units []unit) error {
	for _, u := range units {
		routines, err := u.parse()
		if err != nil {
			return err
		}
		for _, rt := range routines {
			res, err := core.Allocate(context.Background(), rt, l.opts)
			if err != nil {
				return fmt.Errorf("%s: %w", rt.Name, err)
			}
			l.cache.Put(driver.KeyFor(rt, l.opts), res)
			l.results = append(l.results, res)
		}
	}
	return nil
}

// op runs one unit through the path's layer calls.
func (l *ledger) op(u unit) error {
	var root int
	var start time.Time
	if l.rec != nil {
		start = time.Now()
		root = l.rec.add(0, "op", start, start, 0)
	}
	err := l.steps(root, u)
	if l.rec != nil {
		l.rec.spans[root-1].End = l.rec.at(time.Now())
	}
	return err
}

func (l *ledger) steps(root int, u unit) error {
	var (
		routines []*iloc.Routine
		err      error
	)
	switch l.path {
	case pathAlloc:
		// batch-cold's units arrive parsed.
		routines, err = u.parse()
	case pathMiss:
		l.call(root, "cluster.route", func() { _ = l.proxy.AllocateKey(u.Body) })
		fallthrough
	case pathHit:
		l.call(root, "iloc.parse", func() { routines, err = iloc.ParseProgram(u.Text) })
	}
	if err != nil {
		return err
	}
	out := make([]*core.Result, len(routines))
	for i, rt := range routines {
		if out[i], err = l.routine(root, rt); err != nil {
			return fmt.Errorf("%s: %w", rt.Name, err)
		}
	}
	if l.path != pathAlloc {
		for _, res := range out {
			l.call(root, "iloc.print", func() { _ = iloc.Print(res.Routine) })
		}
	}
	return nil
}

func (l *ledger) routine(root int, rt *iloc.Routine) (*core.Result, error) {
	var (
		key driver.Key
		res *core.Result
		hit bool
		err error
	)
	if l.path != pathAlloc {
		l.call(root, "driver.key", func() { key = driver.KeyFor(rt, l.opts) })
		l.call(root, "driver.cache_get", func() { res, hit = l.cache.Get(key) })
		if hit != (l.path == pathHit) {
			return nil, fmt.Errorf("ledger cache hit=%t, want %t", hit, l.path == pathHit)
		}
		if hit {
			return res, nil
		}
	}
	id := l.call(root, "core.allocate", func() { res, err = core.Allocate(context.Background(), rt, l.opts) })
	if err != nil {
		return nil, err
	}
	l.routines++
	l.results = append(l.results, res)
	if l.rec != nil {
		// The passes ran inside the allocate span, one after another;
		// lay their reported times end to end from its start.
		t := l.rec.origin.Add(time.Duration(l.rec.spans[id-1].Start))
		for _, it := range res.Iterations {
			for _, ps := range it.Passes {
				l.rec.add(id, "core."+ps.Name, t, t.Add(ps.Time), 0)
				t = t.Add(ps.Time)
			}
		}
	}
	l.call(root, "verify.check", func() {
		err = verify.Check(rt, res.Routine, l.opts.Machine, verify.Options{Differential: true})
	})
	if err != nil {
		return nil, err
	}
	if l.path == pathMiss {
		l.call(root, "driver.cache_put", func() { l.cache.Put(key, res) })
	}
	return res, nil
}

// ledgerRun is what one workload's ledger reports.
type ledgerRun struct {
	metrics   map[string]float64
	rec       *recorder
	results   []*core.Result // every allocation the traced pass made or warmed from
	ops       int
	overheadP float64 // tracing overhead, percent of the untraced ledger time
}

// runLedger replays units through path twice, first without spans and
// then with them, and returns the traced pass's per-layer figures plus
// the tracing overhead: traced minus untraced time, as a share of
// untraced.
func runLedger(path ledgerPath, opts core.Options, units []unit) (*ledgerRun, error) {
	pass := func(traced bool) (*ledger, time.Duration, error) {
		l, err := newLedger(path, opts)
		if err != nil {
			return nil, 0, err
		}
		if path == pathHit {
			if err := l.warm(units); err != nil {
				return nil, 0, err
			}
		}
		if traced {
			l.rec = newRecorder()
		}
		runtime.GC()
		d, err := timeIt(func() error {
			for _, u := range units {
				if err := l.op(u); err != nil {
					return fmt.Errorf("ledger %s: %w", u.Name, err)
				}
			}
			return nil
		})
		return l, d, err
	}
	_, plain, err := pass(false)
	if err != nil {
		return nil, err
	}
	l, traced, err := pass(true)
	if err != nil {
		return nil, err
	}
	l.rec.finish()
	self, allocs, ops := selfByLayer(l.rec.spans)
	perOp := func(name string) float64 { return float64(self[name]) / 1e3 / float64(ops) }
	perRoutine := func(v float64) float64 {
		if l.routines == 0 {
			return 0
		}
		return v / float64(l.routines)
	}
	m := map[string]float64{
		"iloc.parse_us":             perOp("iloc.parse"),
		"iloc.print_us":             perOp("iloc.print"),
		"driver.key_us":             perOp("driver.key"),
		"driver.key_allocs":         float64(allocs["driver.key"]) / float64(ops),
		"driver.cache_get_us":       perOp("driver.cache_get"),
		"driver.cache_put_us":       perOp("driver.cache_put"),
		"driver.cache_hit_ratio":    l.cache.Stats().HitRate(),
		"core.allocs_per_routine":   perRoutine(float64(allocs["core.allocate"])),
		"verify.check_us":           perOp("verify.check"),
		"verify.allocs_per_routine": perRoutine(float64(allocs["verify.check"])),
		"cluster.route_us":          perOp("cluster.route"),
		"cluster.route_allocs":      float64(allocs["cluster.route"]) / float64(ops),
	}
	allocate := perOp("core.allocate")
	for _, p := range passNames {
		m["core."+p+"_us"] = perOp("core." + p)
		allocate += m["core."+p+"_us"]
	}
	m["core.allocate_us"] = allocate
	return &ledgerRun{metrics: m, rec: l.rec, results: l.results, ops: ops, overheadP: 100 * (traced - plain).Seconds() / plain.Seconds()}, nil
}
