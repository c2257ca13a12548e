package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/soteria-analysis/soteria/internal/client"
)

// newFakePeer starts a minimal soteriad stand-in: a canned forward
// handler that insists on the forwarded-hop marker and echoes the
// trace ID.
func newFakePeer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/analyze" {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		if r.Header.Get(client.ForwardedHeader) == "" {
			http.Error(w, `{"error":"missing forward marker"}`, http.StatusBadRequest)
			return
		}
		w.Header().Set(client.TraceHeader, r.Header.Get(client.TraceHeader))
		fmt.Fprintln(w, `{"job_id":"jb-peer","status":"done","key":"k","cached":true}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// twoNodeCluster builds a Cluster where "self" is a placeholder URL
// and the one remote peer is the fake server.
func twoNodeCluster(t *testing.T, remote string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:  "http://self.invalid:1",
		Peers: []string{"http://self.invalid:1", remote},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewRejectsSelfOutsidePeers(t *testing.T) {
	_, err := New(Config{Self: "http://me:1", Peers: []string{"http://other:1"}})
	if err == nil {
		t.Fatal("self outside peer list accepted")
	}
}

func TestSingleMemberClusterIsAllLocal(t *testing.T) {
	c, err := New(Config{Self: "http://solo:1", Peers: []string{"http://solo:1"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("%064x", i)
		if !c.IsLocal(key) {
			t.Fatalf("single-member cluster routed %s remotely", key)
		}
	}
}

func TestForwardSetsMarkerAndTrace(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.URL)
	j, err := c.Forward(context.Background(), p.URL, "/v1/analyze", []byte(`{"apps":[]}`), "tr-abc")
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if j.JobID != "jb-peer" || !j.Cached {
		t.Fatalf("unexpected job: %+v", j)
	}
	if j.Trace != "tr-abc" {
		t.Fatalf("trace not pinned across the hop: %q", j.Trace)
	}
	st := c.Status()
	var remote PeerStatus
	for _, ps := range st.Peers {
		if ps.Node == p.URL {
			remote = ps
		}
	}
	if remote.Forwards != 1 || remote.ForwardErrors != 0 {
		t.Fatalf("peer status counters: %+v", remote)
	}
}

func TestForwardToUnknownNodeFails(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.URL)
	if _, err := c.Forward(context.Background(), "http://stranger:1", "/v1/analyze", nil, ""); err == nil {
		t.Fatal("forward to non-member accepted")
	}
	if _, err := c.Forward(context.Background(), c.Self(), "/v1/analyze", nil, ""); err == nil {
		t.Fatal("forward to self accepted")
	}
}

func TestClusterStatusSharesSumToOne(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.URL)
	st := c.Status()
	if st.Members != 2 || st.Self != c.Self() {
		t.Fatalf("status header: %+v", st)
	}
	total := 0.0
	for _, ps := range st.Peers {
		total += ps.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %f", total)
	}
}
