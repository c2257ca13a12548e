package cluster_test

// Process-level fleet chaos: three real soteriad processes formed into
// a fleet with -peers, loaded with the market-style corpus, one node
// SIGKILLed mid-load. The properties under test are the acceptance
// criteria for the cluster subsystem:
//
//   - requests to the surviving nodes keep succeeding (owner-loss
//     degrades to local analysis, never to client-visible failure);
//   - every job the killed node acknowledged before the kill reaches a
//     terminal "done" state after it restarts over the same journal —
//     no accepted job is lost;
//   - routing converges back: once the killed node is up again, the
//     survivors' forwards reach it and its store (cache hits resume).
//
// The harness mirrors internal/chaos: a once-compiled soteriad binary,
// free-port probing, SIGKILL (never a drain), and log capture.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/client"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

var buildOnce = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "soteria-fleet-*")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "soteriad")
	cmd := exec.Command("go", "build", "-o", bin, "github.com/soteria-analysis/soteria/cmd/soteriad")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building soteriad: %v\n%s", err, out)
	}
	return bin, nil
})

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probing for a free port: %v", err)
	}
	defer l.Close()
	return l.Addr().String()
}

type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// fleetNode is one soteriad subprocess in the fleet.
type fleetNode struct {
	addr  string
	url   string
	state string
	cmd   *exec.Cmd
	out   syncBuffer
}

// startNode launches (or relaunches, over the same state dir) one
// fleet member. peers is the full static membership, self included.
func startNode(t *testing.T, n *fleetNode, peers []string) {
	t.Helper()
	bin, err := buildOnce()
	if err != nil {
		t.Fatalf("%v", err)
	}
	n.cmd = exec.Command(bin,
		"-addr", n.addr,
		"-node", n.url,
		"-peers", strings.Join(peers, ","),
		"-store", filepath.Join(n.state, "store"),
		"-journal", filepath.Join(n.state, "journal.wal"),
		"-workers", "1",
		"-queue", "64",
		"-job-timeout", "60s",
	)
	n.cmd.Stdout = &n.out
	n.cmd.Stderr = &n.out
	if err := n.cmd.Start(); err != nil {
		t.Fatalf("starting soteriad %s: %v", n.url, err)
	}
	t.Cleanup(func() { killNode(n) })

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("soteriad %s never became healthy\n%s", n.url, n.out.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func killNode(n *fleetNode) {
	if n.cmd == nil || n.cmd.Process == nil {
		return
	}
	_ = n.cmd.Process.Signal(syscall.SIGKILL)
	_, _ = n.cmd.Process.Wait()
	n.cmd.Process = nil
}

func fleetClient(t *testing.T, url string) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{BaseURL: url})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	return c
}

// variantApp derives distinct analysis inputs so each submission has
// its own content address and ring position.
func variantApp(i int) client.App {
	return client.App{
		Name:   fmt.Sprintf("fleet-app-%d", i),
		Source: fmt.Sprintf("// fleet variant %d\n%s", i, paperapps.SmokeAlarm),
	}
}

// TestFleetKillOneNodeMidLoad is the cluster acceptance test: boot a
// 3-node fleet, run load, SIGKILL one node mid-load, and verify no
// accepted job is lost and no surviving-node request fails.
func TestFleetKillOneNodeMidLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet chaos test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Boot the fleet: three processes, one static -peers list.
	nodes := make([]*fleetNode, 3)
	peers := make([]string, 3)
	for i := range nodes {
		addr := freeAddr(t)
		nodes[i] = &fleetNode{addr: addr, url: "http://" + addr, state: t.TempDir()}
		peers[i] = nodes[i].url
	}
	for _, n := range nodes {
		startNode(t, n, peers)
	}
	victim, survivorA, survivorB := nodes[2], nodes[0], nodes[1]
	ca, cb := fleetClient(t, survivorA.url), fleetClient(t, survivorB.url)

	// The fleet is wired: every node sees 3 members.
	for _, n := range nodes {
		st := clusterStatusOf(t, n.url)
		if st.Members != 3 {
			t.Fatalf("%s reports %d members, want 3", n.url, st.Members)
		}
	}

	// Warm phase: find variants owned by (and analyzed on) the victim,
	// observed via the response's node attribution. Their records live
	// in the victim's store — the convergence probes for later.
	var victimOwned []int
	for i := 0; i < 30 && len(victimOwned) < 2; i++ {
		j, err := ca.Analyze(ctx, client.AnalyzeRequest{Apps: []client.App{variantApp(i)}})
		if err != nil {
			t.Fatalf("warm submit %d: %v", i, err)
		}
		if j.Status != "done" {
			t.Fatalf("warm submit %d ended %q: %+v", i, j.Status, j)
		}
		if j.Node == victim.url {
			victimOwned = append(victimOwned, i)
		}
	}
	if len(victimOwned) == 0 {
		t.Fatalf("no variant out of 30 hashed to the victim's arc (suspicious ring)")
	}

	// Async jobs accepted (journaled) by the victim — the jobs that
	// must survive its crash.
	const acceptedJobs = 3
	cv := fleetClient(t, victim.url)
	ids := make([]string, acceptedJobs)
	for i := 0; i < acceptedJobs; i++ {
		j, err := cv.Analyze(ctx, client.AnalyzeRequest{
			Apps:           []client.App{variantApp(100 + i)},
			Async:          true,
			IdempotencyKey: fmt.Sprintf("fleet-chaos-%d", i),
		})
		if err != nil {
			t.Fatalf("accept %d on victim: %v", i, err)
		}
		if j.JobID == "" {
			t.Fatalf("accept %d: no job ID in %+v", i, j)
		}
		ids[i] = j.JobID
	}

	// Load against the survivors; a third of its keys route to the
	// victim. The kill lands mid-load; every request must still
	// succeed — owner loss degrades to local analysis.
	var loadErrs atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	killed := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ca
			if w == 1 {
				c = cb
			}
			for i := 0; i < 20; i++ {
				j, err := c.Analyze(ctx, client.AnalyzeRequest{Apps: []client.App{variantApp(200 + w*100 + i)}})
				if err != nil {
					loadErrs.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("worker %d req %d: %v", w, i, err))
				} else if j.Status != "done" {
					loadErrs.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("worker %d req %d: status %s (%s)", w, i, j.Status, j.Error))
				}
				if i == 4 && w == 0 {
					close(killed) // signal after a few requests are through
				}
			}
		}(w)
	}
	<-killed
	killNode(victim)
	wg.Wait()
	if n := loadErrs.Load(); n > 0 {
		t.Fatalf("%d load requests failed after the kill (first: %v)", n, firstErr.Load())
	}

	// Restart the victim on its original URL over the same store and
	// journal. Every job it accepted must still reach "done" under its
	// original ID — the journal, not the fleet, carries that promise.
	startNode(t, victim, peers)
	cv2 := fleetClient(t, victim.url)
	for i, id := range ids {
		j := waitTerminal(t, cv2, ctx, id, 90*time.Second)
		if j.Status != "done" || j.Result == nil {
			t.Fatalf("accepted job %d (%s) after restart: %+v", i, id, j)
		}
	}

	// Routing converges: a survivor's resubmission of a victim-owned
	// variant is served as a cache hit again, which requires a
	// successful forward to the restarted victim, whose store still
	// holds the record. The forward breaker cools down in ~2s; poll
	// past it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := ca.Analyze(ctx, client.AnalyzeRequest{Apps: []client.App{variantApp(victimOwned[0])}})
		if err == nil && j.Status == "done" && j.Cached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor never regained cache hits from the restarted node (last: %+v, err %v)", j, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// clusterStatus is the slice of /v1/cluster/status this test reads.
type clusterStatus struct {
	Self    string `json:"self"`
	Members int    `json:"members"`
}

func clusterStatusOf(t *testing.T, url string) clusterStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster/status")
	if err != nil {
		t.Fatalf("cluster status %s: %v", url, err)
	}
	defer resp.Body.Close()
	var st clusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("cluster status %s: %v", url, err)
	}
	return st
}

func waitTerminal(t *testing.T, c *client.Client, ctx context.Context, id string, limit time.Duration) *client.Job {
	t.Helper()
	deadline := time.Now().Add(limit)
	for {
		j, err := c.Poll(ctx, id)
		if err != nil {
			t.Fatalf("job %s lost after restart: %v", id, err)
		}
		if j.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished after restart: %+v", id, j)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
