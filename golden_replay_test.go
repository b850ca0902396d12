package regalloc

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/suite"
)

var updateReplay = flag.Bool("update-replay", false, "rewrite the golden corpus replay hashes")

// goldenReplaySpec is the corpus the replay hashes cover, on top of the
// suite kernels and their callees.
const goldenReplaySpec = "count=100,seed=7"

const goldenReplayFile = "testdata/golden_replay.sha256"

// TestGoldenCorpusReplay is the byte-identity proof for allocator
// refactors: a fixed generated corpus plus the suite kernels allocate
// with every registered strategy on every zoo machine, verifier on, and
// each strategy × machine pair hashes every unit's name, printed
// routine, iteration count and spilled/remat counts into one SHA-256.
// A change that claims to keep the output byte-identical must leave
// every hash alone. Regenerate deliberately with
//
//	go test -run TestGoldenCorpusReplay -update-replay .
func TestGoldenCorpusReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay across strategies and machines")
	}
	spec, err := corpus.ParseSpec(goldenReplaySpec)
	if err != nil {
		t.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	routines := corpus.Routines(units)
	for _, k := range suite.All() {
		routines = append(routines, k.Routine())
		routines = append(routines, k.CalleeRoutines()...)
	}

	var got []string
	for _, strat := range core.StrategyNames() {
		for _, e := range machines.All() {
			got = append(got, fmt.Sprintf("%s %s %s", strat, e.Name, replayHash(t, routines, strat, e)))
		}
	}

	if *updateReplay {
		text := "# " + goldenReplaySpec + " plus the suite kernels; strategy machine sha256\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(filepath.FromSlash(goldenReplayFile), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readReplayHashes(t)
	if len(want) != len(got) {
		t.Errorf("%d strategy × machine hashes, golden file has %d (run with -update-replay if the set changed on purpose)",
			len(got), len(want))
	}
	for _, line := range got {
		key := line[:strings.LastIndexByte(line, ' ')]
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden hash", key)
		} else if w != line {
			t.Errorf("allocation output drifted: got %q, golden %q", line, w)
		}
	}
}

// replayHash allocates every routine with one strategy on one machine
// and folds the results into a single hex SHA-256.
func replayHash(t *testing.T, routines []*iloc.Routine, strat string, e machines.Entry) string {
	t.Helper()
	h := sha256.New()
	for _, rt := range routines {
		res, err := core.Allocate(context.Background(), rt, core.Options{
			Machine: e.Machine, Strategy: strat, Verify: true,
		})
		if err != nil {
			t.Fatalf("%s @ %s: %s: %v", strat, e.Name, rt.Name, err)
		}
		fmt.Fprintf(h, "%s\n%s\niterations=%d spilled=%d remat=%d degraded=%t\n",
			rt.Name, iloc.Print(res.Routine), len(res.Iterations),
			res.SpilledRanges, res.RematSpills, res.Degraded)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readReplayHashes loads the golden file keyed by "strategy machine".
func readReplayHashes(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(goldenReplayFile))
	if err != nil {
		t.Fatalf("missing golden replay hashes (run with -update-replay): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want[line[:strings.LastIndexByte(line, ' ')]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
