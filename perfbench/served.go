package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/server"
	"repro/internal/target"
	"repro/internal/verify"
)

// servedMachine is the zoo machine every served request asks for.
const servedMachine = "x86-64"

// hitCount is serve-hit's corpus size in generation units: about 2500
// routines, inside the daemon's L1 and large enough that its mix of
// routine sizes hardly changes from seed to seed.
const hitCount = 1000

// l1Capacity is the daemons' L1 size, passed explicitly (it is also
// rallocd's default).
const l1Capacity = 4096

// maxWindows bounds how many windows a served timed phase is cut into.
const maxWindows = 10

// missPerSecond sizes proxy-miss's corpus: units generated per second
// of timed phase, about 1.6 times the rate the cluster sustains on two
// CPUs, so no unit repeats within a run. A faster program that runs out
// ends the phase early; the shape line then says "exhausted".
const missPerSecond = 800

// daemon is one rallocd or rallocproxy process launched by the run.
type daemon struct {
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// startDaemon launches bin/prog on an ephemeral loopback port and waits
// until it answers /readyz with 200.
func startDaemon(cfg *config, name, prog string, args ...string) (*daemon, error) {
	addrFile := filepath.Join(cfg.work, name+".addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	log, err := os.Create(filepath.Join(cfg.work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.bin, prog), append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The daemons die with the benchmark even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("%s exited during start-up (%v); see %s", name, err, log.Name())
		default:
		}
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.url = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(d.url + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s not ready after 30s; see %s", name, log.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		d.done <- <-d.done
	}
	d.log.Close()
}

// fleet is the set of daemons one setup launched.
type fleet []*daemon

func (f fleet) stop() {
	for i := len(f) - 1; i >= 0; i-- {
		f[i].stop()
	}
}

// reply is one request as the client saw it, its body decoded on
// arrival: holding every raw body of a run would cost the load
// generator hundreds of megabytes.
type reply struct {
	unit    int
	backend string
	lat     time.Duration
	at      time.Time                // when the last body byte arrived
	resp    *server.AllocateResponse // the 200 body
	err     error                    // transport, status, decode or check failure
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: maxLoad, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func post(c *http.Client, url string, unit int, body []byte) reply {
	start := time.Now()
	r := reply{unit: unit}
	resp, err := c.Post(url+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		r.at = time.Now()
		r.err, r.lat = err, r.at.Sub(start)
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.at = time.Now()
	r.lat = r.at.Sub(start)
	r.backend = resp.Header.Get("X-Ralloc-Backend")
	if r.err = err; err == nil {
		r.resp, r.err = decode(resp.StatusCode, data)
	}
	return r
}

// closedLoop runs loadWorkers clients against url, each sending its
// next request only when the previous reply has arrived. next hands
// out unit indices; false stops the client asking. keep, when not nil,
// sees each reply on its client's goroutine before it is stored.
func closedLoop(c *http.Client, url string, in *inputs, next func() (int, bool), keep func(*reply)) []reply {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var out []reply
	for w := 0; w < loadWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []reply
			for i, ok := next(); ok; i, ok = next() {
				body, err := in.request(i)
				r := reply{unit: i, err: err}
				if err == nil {
					r = post(c, url, i, body)
				}
				if keep != nil {
					keep(&r)
				}
				mine = append(mine, r)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// upTo hands out indices lo..hi-1 once each, stopping early at end
// (zero: never).
func upTo(lo, hi int, end time.Time) func() (int, bool) {
	var n atomic.Int64
	return func() (int, bool) {
		i := lo + int(n.Add(1)-1)
		return i, i < hi && (end.IsZero() || time.Now().Before(end))
	}
}

// decode turns a reply body into a 200 response, or says why it is not
// one.
func decode(status int, body []byte) (*server.AllocateResponse, error) {
	switch {
	case status == http.StatusTooManyRequests:
		return nil, fmt.Errorf("shed (429)")
	case status != http.StatusOK:
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp server.AllocateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return &resp, nil
}

// cacheWant is the cache outcome a phase is built to produce.
type cacheWant int

const (
	cacheAny  cacheWant = iota // warm-up: kernels share callees, so some hit
	cacheHit                   // serve-hit's timed phase, relay probes
	cacheMiss                  // proxy-miss's timed phase
)

// checkResponse is the per-reply contract: one verified, undegraded
// result per routine sent, and the cache outcome the workload is built
// to produce.
func checkResponse(resp *server.AllocateResponse, u unit, want cacheWant) error {
	if len(resp.Results) != u.N {
		return fmt.Errorf("%d results for %d routines", len(resp.Results), u.N)
	}
	for _, ur := range resp.Results {
		switch {
		case ur.Error != "":
			return fmt.Errorf("%s: %s", ur.Name, ur.Error)
		case !ur.Verified:
			return fmt.Errorf("%s: unverified", ur.Name)
		case ur.Degraded:
			return fmt.Errorf("%s: degraded: %s", ur.Name, ur.DegradeReason)
		case want == cacheHit && !ur.CacheHit:
			return fmt.Errorf("%s: a miss in a phase built to be all hits", ur.Name)
		case want == cacheMiss && ur.CacheHit:
			return fmt.Errorf("%s: a hit in a phase built to be all misses", ur.Name)
		}
	}
	return nil
}

// checkCode verifies each returned routine against its input with the
// interpreter differential on, independently of the daemon's own
// verdict.
func checkCode(resp *server.AllocateResponse, u unit, m *target.Machine) ([]*iloc.Routine, error) {
	input, err := u.parse()
	if err != nil {
		return nil, err
	}
	out := make([]*iloc.Routine, len(resp.Results))
	for i, ur := range resp.Results {
		rt, err := iloc.Parse(ur.Code)
		if err != nil {
			return nil, fmt.Errorf("%s: returned code: %w", ur.Name, err)
		}
		// Restore what the printed form leaves out, as the disk cache
		// tier does: the allocation flag, the frame and the machine's
		// register file and calling convention.
		rt.Allocated = true
		rt.FrameWords = ur.FrameWords
		rt.NextReg = m.Regs
		for c := range rt.CallerSave {
			rt.CallerSave[c] = m.CallerSave
		}
		if err := verify.Check(input[i], rt, m, verify.Options{Differential: true}); err != nil {
			return nil, err
		}
		out[i] = rt
	}
	return out, nil
}

// checkAll checks every reply that arrived as a 200, on the
// benchmark's workers; deep also re-verifies the returned code.
func checkAll(replies []reply, in *inputs, m *target.Machine, want cacheWant, deep bool) {
	parallel(len(replies), func(i int) {
		r := &replies[i]
		if r.err != nil {
			return
		}
		if r.err = checkResponse(r.resp, in.Units[r.unit], want); r.err != nil || !deep {
			return
		}
		_, r.err = checkCode(r.resp, in.Units[r.unit], m)
	})
}

type memstats struct {
	Mallocs    uint64
	TotalAlloc uint64
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// memOf reads a daemon's heap counters from /debug/vars.
func memOf(c *http.Client, d *daemon) (memstats, error) {
	var v struct {
		Memstats memstats `json:"memstats"`
	}
	err := getJSON(c, d.url+"/debug/vars", &v)
	return v.Memstats, err
}

// scrape reads a daemon's flat "name value" /metrics dump.
func scrape(c *http.Client, d *daemon) (map[string]float64, error) {
	resp, err := c.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// snapshot is every backend's counters at one instant.
type snapshot struct {
	mem     []memstats
	metrics []map[string]float64
}

func snap(c *http.Client, ds []*daemon) (snapshot, error) {
	var s snapshot
	for _, d := range ds {
		m, err := memOf(c, d)
		if err != nil {
			return s, err
		}
		met, err := scrape(c, d)
		if err != nil {
			return s, err
		}
		s.mem = append(s.mem, m)
		s.metrics = append(s.metrics, met)
	}
	return s, nil
}

// delta sums a counter's growth across the snapshot's daemons.
func delta(a, b snapshot, f func(memstats, map[string]float64) float64) float64 {
	var d float64
	for i := range a.mem {
		d += f(b.mem[i], b.metrics[i]) - f(a.mem[i], a.metrics[i])
	}
	return d
}

// setUp runs a served workload's set-up setupReps times, timing each:
// generate the inputs, launch the daemons, send the warm-up units once.
// Every fleet but the last is stopped. The inputs must be identical
// every time.
func setUp(o *outcome, setup func() (*inputs, fleet, []reply, error)) (*inputs, fleet, []reply, error) {
	var (
		in     *inputs
		f      fleet
		warm   []reply
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		f.stop()
		prev := in
		d, err := timeIt(func() (err error) {
			in, f, warm, err = setup()
			return err
		})
		if err != nil {
			f.stop()
			return nil, nil, nil, err
		}
		if prev != nil && prev.Hash != in.Hash {
			f.stop()
			return nil, nil, nil, fmt.Errorf("one seed generated two different input sets")
		}
		setups = append(setups, d.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	return in, f, warm, nil
}

// timed runs the closed loop against url until next stops, with every
// backend's counters read before and after.
func timed(c *http.Client, url string, in *inputs, backends []*daemon, next func() (int, bool), keep func(*reply)) (phase, error) {
	var p phase
	var err error
	if p.before, err = snap(c, backends); err != nil {
		return p, err
	}
	p.start = time.Now()
	p.replies = closedLoop(c, url, in, next, keep)
	p.elapsed = time.Since(p.start)
	p.after, err = snap(c, backends)
	return p, err
}

// phase is a timed phase's replies and the backends' counters around it.
type phase struct {
	replies       []reply
	start         time.Time
	elapsed       time.Duration
	before, after snapshot
}

// servedE2E fills the end-to-end metrics common to both served
// workloads from the checked timed replies.
func servedE2E(o *outcome, in *inputs, p phase) error {
	replies := p.replies
	// Cut the phase into equal windows of about twice minWindowSamples
	// replies each, at most maxWindows of them.
	nw := max(1, min(maxWindows, len(replies)/(2*minWindowSamples)))
	ws := make([]window, nw)
	for i := range ws {
		ws[i].width = p.elapsed / time.Duration(nw)
	}
	for _, r := range replies {
		w := &ws[max(0, min(nw-1, int(r.at.Sub(p.start)/ws[0].width)))]
		w.lat = append(w.lat, ms(r.lat))
		o.attempted++
		if r.err != nil {
			o.fail("%s: %v", in.Units[r.unit].Name, r.err)
			continue
		}
		w.ok++
	}
	if err := summarize(o, ws); err != nil {
		return err
	}
	n := float64(len(replies))
	o.e2e["allocs_per_op"] = delta(p.before, p.after, func(m memstats, _ map[string]float64) float64 { return float64(m.Mallocs) }) / n
	o.e2e["bytes_per_op"] = delta(p.before, p.after, func(m memstats, _ map[string]float64) float64 { return float64(m.TotalAlloc) }) / n
	o.shape["latency_samples"] = len(replies)
	o.shape["windows"] = nw
	o.shape["timed_s"] = p.elapsed.Seconds()
	return nil
}

// servedLayers fills the server.* and driver.worker_util metrics from
// the timed replies and the backends' counters.
func servedLayers(o *outcome, p phase) {
	var engine, edge, util []float64
	for _, r := range p.replies {
		if r.resp == nil {
			continue
		}
		st := r.resp.Stats
		engine = append(engine, st.WallMs)
		edge = append(edge, ms(r.lat)-st.WallMs)
		if st.WallMs > 0 && st.Workers > 0 {
			util = append(util, st.CPUMs/(st.WallMs*float64(st.Workers)))
		}
	}
	counter := func(name string) func(memstats, map[string]float64) float64 {
		return func(_ memstats, m map[string]float64) float64 { return m[name] }
	}
	hits := delta(p.before, p.after, counter("store.l1.hits"))
	misses := delta(p.before, p.after, counter("store.l1.misses"))
	o.layers["server.engine_ms"] = mean(engine)
	o.layers["server.edge_ms"] = mean(edge)
	o.layers["server.cache_hit_ratio"] = hits / max(1, hits+misses)
	o.layers["server.shed"] = delta(p.before, p.after, counter("server.shed"))
	o.layers["driver.worker_util"] = mean(util)
}

// servedKernelCycles runs the suite kernels as the warm-up served them.
// Warm-up replies that failed their checks have no code to run.
func servedKernelCycles(o *outcome, in *inputs, warm []reply, m *target.Machine) (int64, error) {
	code := map[int][]*iloc.Routine{}
	for _, r := range warm {
		if r.err == nil && r.unit < len(in.Kernels) {
			rts, err := checkCode(r.resp, in.Units[r.unit], m)
			if err != nil {
				return 0, err
			}
			code[r.unit] = rts
		}
	}
	return kernelCycles(o, in, m, func(k kernelRef) (*iloc.Routine, []*iloc.Routine) {
		rts := code[k.Main]
		if len(rts) == 0 {
			return nil, nil
		}
		return rts[0], rts[1:]
	})
}

func servedShape(o *outcome, in *inputs, m *target.Machine) {
	o.shape["corpus_spec"] = in.Spec
	o.shape["corpus_manifest"] = in.Manifest
	o.shape["inputs_hash"] = in.Hash
	o.shape["units"] = len(in.Units)
	o.shape["routines"] = in.Routines
	o.shape["machine"] = servedMachine
	o.shape["machine_shape"] = machines.ShapeKey(m)
	o.shape["strategy"] = "remat"
	o.shape["connections"] = loadWorkers()
	o.shape["l1_capacity"] = l1Capacity
}

// runServeHit measures one rallocd replaying a corpus that fits its L1:
// after the warm-up pass (part of set-up) every timed request is a hit.
func runServeHit(cfg *config) (*outcome, error) {
	m, err := machines.Lookup(servedMachine)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	c := newClient()
	in, f, warm, err := setUp(o, func() (*inputs, fleet, []reply, error) {
		in, err := servedInputs(hitCount, cfg.seed, servedMachine)
		if err != nil {
			return nil, nil, nil, err
		}
		d, err := startDaemon(cfg, "rallocd", "rallocd", "-cache-size", strconv.Itoa(l1Capacity), "-instance-id", "hit0")
		if err != nil {
			return nil, nil, nil, err
		}
		warm := closedLoop(c, d.url, in, upTo(0, len(in.Units), time.Time{}), nil)
		return in, fleet{d}, warm, nil
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()

	// The warm-up answers are the reference: each is checked in full,
	// and every timed reply must return the same code.
	checkAll(warm, in, m, cacheAny, true)
	ref := make([][]string, len(in.Units))
	for _, r := range warm {
		o.attempted++
		if r.err != nil {
			o.fail("warm-up %s: %v", in.Units[r.unit].Name, r.err)
			continue
		}
		for _, ur := range r.resp.Results {
			ref[r.unit] = append(ref[r.unit], ur.Code)
		}
	}
	cycles, err := servedKernelCycles(o, in, warm, m)
	if err != nil {
		return nil, err
	}

	var n atomic.Int64
	end := time.Now().Add(cfg.phase())
	next := func() (int, bool) { return int((n.Add(1) - 1) % int64(len(in.Units))), time.Now().Before(end) }
	// Each reply is checked as it arrives, then stripped of its code.
	keep := func(r *reply) {
		if r.err == nil {
			r.err = checkResponse(r.resp, in.Units[r.unit], cacheHit)
		}
		if r.err == nil {
			for j, ur := range r.resp.Results {
				if ur.Code != ref[r.unit][j] {
					r.err = fmt.Errorf("%s: served code differs from the verified warm-up answer", ur.Name)
				}
			}
		}
		if r.resp != nil {
			for j := range r.resp.Results {
				r.resp.Results[j].Code = ""
			}
		}
	}
	ph, err := timed(c, f[0].url, in, f, next, keep)
	if err != nil {
		return nil, err
	}
	if err := servedE2E(o, in, ph); err != nil {
		return nil, err
	}
	o.e2e["code_cycles"] = float64(cycles)
	servedShape(o, in, m)
	o.shape["working_set_routines"] = in.Routines

	if cfg.trace {
		servedLayers(o, ph)
		opts, err := servedOptions(in)
		if err != nil {
			return nil, err
		}
		if err := traceLayers(o, pathHit, opts, in, 0); err != nil {
			return nil, err
		}
		zeroLayers(o, "cluster.")
	}
	return o, nil
}

// servedOptions resolves the options a served request asks for over
// the serving defaults, as rallocd does.
func servedOptions(in *inputs) (core.Options, error) {
	return in.Options.Resolve(server.DefaultOptions())
}

// runProxyMiss measures rallocproxy in front of two rallocd backends,
// sending each corpus unit once: every timed request misses, so a
// backend allocates, verifies and fills its L1 each time.
func runProxyMiss(cfg *config) (*outcome, error) {
	m, err := machines.Lookup(servedMachine)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	c := newClient()
	count := missPerSecond * int(cfg.phase().Seconds())
	in, f, warm, err := setUp(o, func() (*inputs, fleet, []reply, error) {
		in, err := servedInputs(count, cfg.seed, servedMachine)
		if err != nil {
			return nil, nil, nil, err
		}
		var f fleet
		var urls []string
		for i := 0; i < 2; i++ {
			d, err := startDaemon(cfg, fmt.Sprintf("rallocd-b%d", i), "rallocd",
				"-cache-size", strconv.Itoa(l1Capacity), "-instance-id", fmt.Sprintf("b%d", i))
			if err != nil {
				f.stop()
				return nil, nil, nil, err
			}
			f = append(f, d)
			urls = append(urls, d.url)
		}
		p, err := startDaemon(cfg, "rallocproxy", "rallocproxy", "-backends", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, nil, nil, err
		}
		f = append(f, p)
		if err := clusterReady(c, p, len(urls)); err != nil {
			f.stop()
			return nil, nil, nil, err
		}
		// Warm-up: the suite kernels, once, through the proxy.
		warm := closedLoop(c, p.url, in, upTo(0, len(in.Kernels), time.Time{}), nil)
		return in, f, warm, nil
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	backends, proxy := f[:2], f[2]

	checkAll(warm, in, m, cacheAny, true)
	for _, r := range warm {
		o.attempted++
		if r.err != nil {
			o.fail("warm-up %s: %v", in.Units[r.unit].Name, r.err)
		}
	}
	cycles, err := servedKernelCycles(o, in, warm, m)
	if err != nil {
		return nil, err
	}

	pm0, err := scrape(c, proxy)
	if err != nil {
		return nil, err
	}
	ph, err := timed(c, proxy.url, in, backends, upTo(len(in.Kernels), len(in.Units), time.Now().Add(cfg.phase())), nil)
	if err != nil {
		return nil, err
	}
	replies := ph.replies
	pm1, err := scrape(c, proxy)
	if err != nil {
		return nil, err
	}
	checkAll(replies, in, m, cacheMiss, true)
	if err := servedE2E(o, in, ph); err != nil {
		return nil, err
	}
	o.e2e["code_cycles"] = float64(cycles)
	servedShape(o, in, m)
	split := map[string]int{}
	for _, r := range replies {
		split[r.backend]++
	}
	o.shape["backend_split"] = split
	o.shape["exhausted"] = len(in.Kernels)+len(replies) >= len(in.Units)
	sent := 0
	for _, r := range replies {
		sent += in.Units[r.unit].N
	}
	o.shape["working_set_routines"] = sent

	if cfg.trace {
		servedLayers(o, ph)
		opts, err := servedOptions(in)
		if err != nil {
			return nil, err
		}
		if err := traceLayers(o, pathMiss, opts, in, len(in.Kernels)); err != nil {
			return nil, err
		}
		o.layers["cluster.retries"] = pm1["proxy.retries"] - pm0["proxy.retries"]
		most := 0
		for _, n := range split {
			most = max(most, n)
		}
		o.layers["cluster.owner_share"] = float64(most) / float64(max(1, len(replies)))
		relay, err := relayCost(c, in, replies, backends, proxy)
		if err != nil {
			return nil, err
		}
		o.layers["cluster.relay_ms"] = relay
	}
	return o, nil
}

// clusterReady waits until the proxy reports every backend ready.
func clusterReady(c *http.Client, p *daemon, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st cluster.ClusterStatus
		if err := getJSON(c, p.url+"/v1/cluster", &st); err == nil {
			ready := 0
			for _, b := range st.Backends {
				if b.Ready {
					ready++
				}
			}
			if ready == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rallocproxy: backends not ready after 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// relayCost prices the proxy hop: for the last 200 bodies of the timed
// phase, still in their owners' L1, the median latency through the
// proxy minus the median latency sent straight to the owning backend.
// Both are L1 hits, so the backend's work is the same on each path.
func relayCost(c *http.Client, in *inputs, replies []reply, backends []*daemon, proxy *daemon) (float64, error) {
	owner := map[string]*daemon{"b0": backends[0], "b1": backends[1]}
	latest := make([]int, len(replies))
	for i := range latest {
		latest[i] = i
	}
	sort.Slice(latest, func(a, b int) bool { return replies[latest[a]].at.After(replies[latest[b]].at) })
	var through, direct []float64
	for _, i := range latest {
		if len(through) == 200 {
			break
		}
		r := replies[i]
		d := owner[r.backend]
		if r.err != nil || d == nil {
			continue
		}
		body, err := in.request(r.unit)
		if err != nil {
			return 0, err
		}
		for _, hop := range []struct {
			url  string
			into *[]float64
		}{{proxy.url, &through}, {d.url, &direct}} {
			rr := post(c, hop.url, r.unit, body)
			err := rr.err
			if err == nil {
				err = checkResponse(rr.resp, in.Units[r.unit], cacheHit)
			}
			if err != nil {
				return 0, fmt.Errorf("relay probe %s: %w", in.Units[r.unit].Name, err)
			}
			*hop.into = append(*hop.into, ms(rr.lat))
		}
	}
	return median(through) - median(direct), nil
}
