package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/graphs"
)

// small is a workload every test can afford under -race: 16 components,
// every worker sees updates every round.
func small(rounds uint64) Config {
	return Config{Workers: 2, Nodes: 256, Churn: 64, Rounds: rounds}
}

// oracle computes a run's result from scratch: the transitive closure of
// the edges live after cfg.Rounds rounds, counted and hashed pair by pair.
func oracle(cfg Config) Result {
	net := map[graphs.Edge]int64{}
	for r := uint64(0); r < cfg.Rounds; r++ {
		for _, u := range roundUpdates(r, cfg.Nodes, cfg.Churn) {
			net[graphs.Edge{Src: u.Key, Dst: u.Val}] += u.Diff
		}
	}
	var live []graphs.Edge
	for e, d := range net {
		if d > 0 {
			live = append(live, e)
		}
	}
	var r Result
	for pair := range datalog.TCOracle(live) {
		r.Count++
		r.Checksum += core.Mix64(core.Mix64(pair[0]) ^ pair[1])
	}
	return r
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Count != want.Count || got.Checksum != want.Checksum {
		t.Fatalf("%s: count=%d checksum=%016x, want count=%d checksum=%016x",
			what, got.Count, got.Checksum, want.Count, want.Checksum)
	}
}

// lines is a concurrency-safe Out that can react to a line as it is
// written.
type lines struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	onLine func(string)
}

func (l *lines) Write(b []byte) (int, error) {
	l.mu.Lock()
	l.buf.Write(b)
	l.mu.Unlock()
	if l.onLine != nil {
		l.onLine(strings.TrimSuffix(string(b), "\n"))
	}
	return len(b), nil
}

func (l *lines) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

func TestOneRankMatchesOracle(t *testing.T) {
	for _, w := range []int{1, 3} {
		cfg := small(9)
		cfg.Workers = w
		sameResult(t, fmt.Sprintf("%d workers", w), run(t, cfg), oracle(cfg))
	}
}

// TestDurableRestoreAfterClose closes a durable run mid-stream — its server
// abandoned open, as a kill leaves it — either right after a checkpoint or
// from the completion tracker while later rounds are still being sealed,
// and requires the run restored with Recover to end with the uninterrupted
// result, with and without a spill tier.
func TestDurableRestoreAfterClose(t *testing.T) {
	for _, spill := range []int64{0, 2048} {
		for _, at := range []string{"checkpointed after round 11 ", "sealed epoch 13"} {
			t.Run(fmt.Sprintf("spill=%d/%s", spill, at), func(t *testing.T) {
				cfg := small(30)
				cfg.Server.DataDir = t.TempDir()
				cfg.CheckpointEvery = 4
				cfg.SpillBytes = spill

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				out := &lines{onLine: func(l string) {
					if strings.HasPrefix(l, at) {
						cancel()
					}
				}}
				cfg.Out = out
				if _, err := Run(ctx, cfg); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("closed run: %v\n%s", err, out)
				}

				cfg.Server.Recover = true
				out = &lines{}
				cfg.Out = out
				r := run(t, cfg)
				if r.Resumed < 12 {
					t.Fatalf("resumed from epoch %d, want at least 12 (closed after round 11)", r.Resumed)
				}
				sameResult(t, "restored run", r, oracle(cfg))
				if spill > 0 {
					m := regexp.MustCompile(`SPILL files=(\d+) refs=(\d+)`).FindStringSubmatch(out.String())
					if m == nil || m[1] != m[2] || m[1] == "0" {
						t.Fatalf("spill census %v, want files == refs > 0", m)
					}
				}
			})
		}
	}
}

// TestResumeFinishedRun: reading the result of a finished durable run seals
// nothing, so resuming it with more rounds restores exactly where it ended.
func TestResumeFinishedRun(t *testing.T) {
	cfg := small(6)
	cfg.Server.DataDir = t.TempDir()
	sameResult(t, "6 rounds", run(t, cfg), oracle(cfg))
	cfg.Rounds, cfg.Server.Recover = 10, true
	r := run(t, cfg)
	if r.Resumed != 6 {
		t.Fatalf("resumed from epoch %d, want 6", r.Resumed)
	}
	sameResult(t, "resumed to 10 rounds", r, oracle(cfg))
}

// swapAddrs is a Config.bound for two ranks listening on port 0: each
// waits for the other's real address, so parallel test processes never
// collide on a port.
func swapAddrs() func(rank int, addr string) []string {
	var mu sync.Mutex
	addrs := make([]string, 2)
	both := make(chan struct{})
	seen := 0
	return func(rank int, addr string) []string {
		mu.Lock()
		addrs[rank] = addr
		if seen++; seen == 2 {
			close(both)
		}
		mu.Unlock()
		<-both
		return addrs
	}
}

// runPair runs both ranks of a loopback two-process cluster.
func runPair(t *testing.T, cfg Config, dirs [2]string) [2]Result {
	t.Helper()
	cfg.Peers = []string{"127.0.0.1:0", "127.0.0.1:0"}
	cfg.bound = swapAddrs()
	var res [2]Result
	var errs [2]error
	var wg sync.WaitGroup
	for rank := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Rank = rank
			c.Server.DataDir = dirs[rank]
			res[rank], errs[rank] = Run(context.Background(), c)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return res
}

func TestTwoRanksMatchOneRank(t *testing.T) {
	cfg := small(8)
	want := run(t, cfg)
	for rank, r := range runPair(t, cfg, [2]string{}) {
		sameResult(t, fmt.Sprintf("rank %d", rank), r, want)
	}
}

// TestTwoRanksResumeFinishedRun: both ranks of a finished durable cluster
// restore exactly where it ended (each rank's incarnation file marks the
// restart, so they recover without being told to).
func TestTwoRanksResumeFinishedRun(t *testing.T) {
	cfg := small(6)
	dirs := [2]string{t.TempDir(), t.TempDir()}
	runPair(t, cfg, dirs)
	cfg.Rounds = 10
	for rank, r := range runPair(t, cfg, dirs) {
		if r.Resumed != 6 {
			t.Fatalf("rank %d resumed from epoch %d, want 6", rank, r.Resumed)
		}
		sameResult(t, fmt.Sprintf("rank %d", rank), r, oracle(cfg))
	}
}

// TestCutAgreement: ranks reporting recoverable epochs 9 and 7 both restore
// to 7, and a cut left over from an earlier generation is ignored.
func TestCutAgreement(t *testing.T) {
	bound := swapAddrs()
	var ps [2]*process
	var wg sync.WaitGroup
	for rank := range 2 {
		p := newProcess(context.Background(), Config{
			Peers:   []string{"127.0.0.1:0", "127.0.0.1:0"},
			Rank:    rank,
			Workers: 2,
			bound:   bound,
		})
		ps[rank] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.connect(); err != nil {
				t.Errorf("rank %d connect: %v", rank, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	defer ps[0].node.Close()
	defer ps[1].node.Close()

	ps[1].send(0, msgCut, 2, 1, 0) // stale: generation 2, epoch 1
	var cuts [2]uint64
	var errs [2]error
	for rank, local := range []uint64{9, 7} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cuts[rank], errs[rank] = ps[rank].agree(msgCut, 3, local)
		}()
	}
	wg.Wait()
	for rank := range 2 {
		if errs[rank] != nil || cuts[rank] != 7 {
			t.Errorf("rank %d agreed on %d (%v), want 7", rank, cuts[rank], errs[rank])
		}
	}
}

func TestNextIncarnation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rank")
	path := filepath.Join(dir, "incarnation")
	for want := uint64(0); want < 2; want++ {
		inc, err := nextIncarnation(dir)
		if err != nil || inc != want {
			t.Fatalf("start %d: incarnation %d (%v), want %d", want, inc, err, want)
		}
		// The bump is on disk when the call returns.
		if b, err := os.ReadFile(path); err != nil || string(b) != fmt.Sprintf("%d\n", want+1) {
			t.Fatalf("after start %d the file holds %q (%v), want %d", want, b, err, want+1)
		}
	}
	if err := os.WriteFile(path, []byte("two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := nextIncarnation(dir); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt file: %v, want an error naming %s", err, path)
	}
}
