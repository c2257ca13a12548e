package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/client"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// buildOnce compiles the real soteriad binary one time per test run.
var buildOnce = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "soteria-chaos-*")
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

func daemonBinary(t *testing.T) string {
	t.Helper()
	bin, err := buildOnce()
	if err != nil {
		t.Fatalf("%v", err)
	}
	return bin
}

// stateDir places a test's store + journal. By default it is a
// temp dir cleaned with the test; with SOTERIA_CHAOS_STATE set (CI)
// state lands under that root and survives the run, so a failure can
// upload the exact journal and store bytes that produced it.
func stateDir(t *testing.T) string {
	t.Helper()
	root := os.Getenv("SOTERIA_CHAOS_STATE")
	if root == "" {
		return t.TempDir()
	}
	dir := filepath.Join(root, t.Name())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("creating chaos state dir: %v", err)
	}
	return dir
}

// freeAddr reserves a listen address by binding and releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probing for a free port: %v", err)
	}
	defer l.Close()
	return l.Addr().String()
}

// syncBuffer captures subprocess output. SIGKILL reaps the process
// without joining exec's pipe-copier goroutines, so reads of the
// captured text can overlap their final writes — hence the lock.
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

// daemon is one soteriad subprocess under test.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string
	out  syncBuffer
}

// startDaemon launches soteriad over the given state directory. With
// chaos set, SOTERIAD_CHAOS_FS fragments and delays store and journal
// writes so a SIGKILL is likely to land inside one.
func startDaemon(t *testing.T, stateDir, addr string, chaos bool) *daemon {
	t.Helper()
	d := &daemon{t: t, addr: addr}
	d.cmd = exec.Command(daemonBinary(t),
		"-addr", addr,
		"-store", filepath.Join(stateDir, "store"),
		"-journal", filepath.Join(stateDir, "journal.wal"),
		"-workers", "1",
		"-queue", "16",
		"-job-timeout", "60s",
	)
	d.cmd.Stdout = &d.out
	d.cmd.Stderr = &d.out
	d.cmd.Env = os.Environ()
	if chaos {
		d.cmd.Env = append(d.cmd.Env, "SOTERIAD_CHAOS_FS=1")
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("starting soteriad: %v", err)
	}
	t.Cleanup(func() {
		d.kill()
		if os.Getenv("SOTERIA_CHAOS_STATE") != "" {
			name := "soteriad-" + strings.ReplaceAll(addr, ":", "-") + ".log"
			_ = os.WriteFile(filepath.Join(stateDir, name), []byte(d.out.String()), 0o644)
		}
	})

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("soteriad never became healthy\n%s", d.out.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// kill delivers SIGKILL — the crash under test, not a drain — and
// reaps the process.
func (d *daemon) kill() {
	if d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	_, _ = d.cmd.Process.Wait()
	d.cmd.Process = nil
}

// chaosClient wires the resilient client at the daemon's address.
func chaosClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{BaseURL: "http://" + addr})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	return c
}

// variantApp derives distinct-but-valid analysis inputs so each job
// has its own content address and must genuinely run.
func variantApp(i int) client.App {
	return client.App{
		Name:   fmt.Sprintf("smoke-alarm-%d", i),
		Source: fmt.Sprintf("// chaos variant %d\n%s", i, paperapps.SmokeAlarm),
	}
}

// TestKillRestartLosesNoAcceptedJob is the acceptance-criteria test:
// jobs acknowledged before a SIGKILL must all reach a terminal state
// after restart, under their original IDs and options, and
// resubmissions with the crash-era idempotency keys must be answered
// by those same jobs.
func TestKillRestartLosesNoAcceptedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	stateDir := stateDir(t)
	d := startDaemon(t, stateDir, freeAddr(t), true)
	c := chaosClient(t, d.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Accept three async jobs. Each acknowledgment means the accepted
	// entry is fsynced in the journal — the property under test.
	const jobs = 3
	ids := make([]string, jobs)
	keys := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		keys[i] = fmt.Sprintf("chaos-key-%d", i)
		j, err := c.Analyze(ctx, client.AnalyzeRequest{
			Apps:           []client.App{variantApp(i)},
			Async:          true,
			IdempotencyKey: keys[i],
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if j.JobID == "" {
			t.Fatalf("submit %d: no job ID in %+v", i, j)
		}
		ids[i] = j.JobID
	}

	// Let the single worker get into the first job (chaos FS keeps its
	// store write slow), then crash the daemon mid-flight. The
	// invariants below hold wherever the kill lands.
	waitStatus(t, c, ctx, ids[0], "running", 30*time.Second)
	d.kill()

	// Restart over the same store + journal (chaos off: recovery speed).
	d2 := startDaemon(t, stateDir, freeAddr(t), false)
	c2 := chaosClient(t, d2.addr)

	// Every accepted job is known (stable IDs — no 404) and reaches a
	// terminal state; none may be lost. Its content key is the one the
	// submitted request hashes to, so a replayed job ran under the
	// options it was accepted with.
	for i, id := range ids {
		j := waitTerminal(t, c2, ctx, id, 90*time.Second)
		if j.Status != "done" {
			t.Fatalf("job %d (%s) ended %q: %+v", i, id, j.Status, j)
		}
		if j.Result == nil || j.Result.Schema != report.Schema {
			t.Fatalf("job %d (%s) has no valid record after restart", i, id)
		}
		app := variantApp(i)
		want := core.AnalysisKey([]core.NamedSource{{Name: app.Name, Source: app.Source}}, core.DefaultOptions())
		if j.Key != want {
			t.Fatalf("job %d content key %s, want %s", i, j.Key, want)
		}
	}

	// Idempotent resubmission: the crash-era keys answer with the
	// original jobs' IDs and their cached results — no re-analysis.
	for i := 0; i < jobs; i++ {
		j, err := c2.Analyze(ctx, client.AnalyzeRequest{
			Apps:           []client.App{variantApp(i)},
			IdempotencyKey: keys[i],
		})
		if err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		if j.JobID != ids[i] {
			t.Fatalf("resubmit %d ran as new job %s, want %s", i, j.JobID, ids[i])
		}
		if j.Status != "done" || j.Result == nil {
			t.Fatalf("resubmit %d: %+v", i, j)
		}
	}

	// No torn record served: every stored result fetched by content
	// address must decode as a current-schema record.
	for i, id := range ids {
		j, err := c2.Poll(ctx, id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if j.Key == "" {
			t.Fatalf("job %d has no content key: %+v", i, j)
		}
		rec, err := c2.Result(ctx, j.Key)
		if err != nil {
			t.Fatalf("result %s: %v", j.Key, err)
		}
		if rec.Schema != report.Schema || len(rec.Apps) == 0 {
			t.Fatalf("stored record for job %d is not sound: %+v", i, rec)
		}
	}
}

// TestKillMidWriteServesNoTornRecord crashes the daemon while the
// chaos filesystem is dribbling a record to disk, then verifies the
// restarted daemon's store: whatever survived is either a whole record
// or quarantined — a re-analysis of the same content must succeed and
// yield a sound record, never a decode error from a torn file.
func TestKillMidWriteServesNoTornRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	stateDir := stateDir(t)
	d := startDaemon(t, stateDir, freeAddr(t), true)
	c := chaosClient(t, d.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// One async job; kill as soon as it is running — with chunked,
	// delayed writes the kill often lands inside the record write or
	// the journal append. The contract holds wherever it lands.
	j, err := c.Analyze(ctx, client.AnalyzeRequest{
		Apps: []client.App{variantApp(100)}, Async: true, IdempotencyKey: "midwrite-key",
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, c, ctx, j.JobID, "running", 30*time.Second)
	d.kill()

	d2 := startDaemon(t, stateDir, freeAddr(t), false)
	c2 := chaosClient(t, d2.addr)

	// The accepted job must finish after restart...
	fin := waitTerminal(t, c2, ctx, j.JobID, 90*time.Second)
	if fin.Status != "done" || fin.Result == nil {
		t.Fatalf("mid-write job after restart: %+v", fin)
	}
	// ...and a fresh sync analysis of the same content must return a
	// sound record, whether it hits the store or re-runs past a
	// quarantined torn file.
	again, err := c2.Analyze(ctx, client.AnalyzeRequest{Apps: []client.App{variantApp(100)}})
	if err != nil {
		t.Fatalf("re-analysis: %v", err)
	}
	if again.Status != "done" || again.Result == nil || again.Result.Schema != report.Schema {
		t.Fatalf("re-analysis after mid-write crash: %+v", again)
	}

	// The store never serves garbage: once the restarted daemon stops,
	// every record its log indexes reads back soundly.
	d2.kill()
	st, err := store.Open(filepath.Join(stateDir, "store"), store.Options{})
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	defer st.Close()
	keys := st.Keys()
	if len(keys) == 0 {
		t.Fatalf("store indexes no record after a done job")
	}
	for _, key := range keys {
		if rec, ok := st.Get(key); !ok || rec.Schema != report.Schema {
			t.Fatalf("store keeps unsound record %s: %+v", key, rec)
		}
	}
}

// waitStatus polls until the job reports the wanted status (or a
// terminal one — a fast job may finish before the poll observes it).
func waitStatus(t *testing.T, c *client.Client, ctx context.Context, id, want string, limit time.Duration) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for {
		j, err := c.Poll(ctx, id)
		if err == nil && (j.Status == want || j.Terminal()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %q (last: %+v, err %v)", id, want, j, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitTerminal polls until the job finishes, failing on 404 — a
// vanished job is exactly the loss this harness exists to catch.
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
