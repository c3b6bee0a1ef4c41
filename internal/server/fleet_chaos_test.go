package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"locsched/internal/fleet"
)

// The fleet chaos suite: every peer-fetch failure mode — owner down,
// owner slow past the deadline, corrupt bytes, clean miss, membership
// change mid-stream — must degrade to a local recompute with a 200 and
// the right counters. The fleet layer may cost extra work, never a 5xx.

// rtFunc adapts a function to http.RoundTripper (the Config
// PeerTransport chaos seam).
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// deadPeerURL returns a loopback URL nothing listens on (bound once to
// reserve a real port, then closed).
func deadPeerURL(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	l.Close()
	return url
}

// bodyOwnedBy searches for a request body whose fakePlanner content key
// (endpoint|body) the given member owns under the given membership.
func bodyOwnedBy(t *testing.T, endpoint string, members []string, owner string) string {
	t.Helper()
	r := fleet.NewRing(members[0], members[1:])
	for i := 0; i < 100000; i++ {
		body := fmt.Sprintf(`{"k":%d}`, i)
		if r.Owner(endpoint+"|"+body) == owner {
			return body
		}
	}
	t.Fatalf("no key found owned by %s", owner)
	return ""
}

// chaosNode is one real replica in an in-process chaos fleet: its
// server, base URL, and the scripted planner counting its executions.
type chaosNode struct {
	srv     *Server
	base    string
	planner *fakePlanner
	done    chan error
}

// startChaosFleet serves n fakePlanner-backed replicas on loopback
// listeners wired into one ring (listeners bound first so every replica
// knows the full membership), torn down in t.Cleanup.
func startChaosFleet(t *testing.T, n int, mutate func(i int, cfg *Config)) []*chaosNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*chaosNode, n)
	for i := range nodes {
		cfg := smallConfig()
		cfg.FleetSelf = urls[i]
		cfg.FleetPeers = append(append([]string(nil), urls[:i]...), urls[i+1:]...)
		if mutate != nil {
			mutate(i, &cfg)
		}
		p := &fakePlanner{}
		srv, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		node := &chaosNode{srv: srv, base: urls[i], planner: p, done: make(chan error, 1)}
		go func(l net.Listener, node *chaosNode) { node.done <- node.srv.Serve(l) }(listeners[i], node)
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := node.srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown %s: %v", node.base, err)
			}
			cancel()
			if err := <-node.done; err != nil && err != http.ErrServerClosed {
				t.Errorf("serve %s: %v", node.base, err)
			}
		}
	})
	return nodes
}

// TestFleetPeerHitServesOwnerBytes: the happy path. A key computed on
// its owner is served to a non-owner via one peer fetch — class "peer",
// byte-identical body, zero extra executions — and the fetched bytes
// are promoted into the non-owner's memory cache for repeats.
func TestFleetPeerHitServesOwnerBytes(t *testing.T) {
	nodes := startChaosFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	body := bodyOwnedBy(t, "run", []string{a.base, b.base}, b.base)

	respB, bytesB := postBody(t, b.base+"/v1/run", body)
	if respB.StatusCode != 200 || respB.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("owner compute: status %d, served %q", respB.StatusCode, respB.Header.Get(ResultHeader))
	}
	respA, bytesA := postBody(t, a.base+"/v1/run", body)
	if respA.StatusCode != 200 || respA.Header.Get(ResultHeader) != "peer" {
		t.Fatalf("non-owner: status %d, served %q, want 200/peer", respA.StatusCode, respA.Header.Get(ResultHeader))
	}
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatalf("peer body differs from owner body: %q vs %q", bytesA, bytesB)
	}
	if n := a.planner.execs.Load(); n != 0 {
		t.Fatalf("non-owner executed %d jobs, want 0", n)
	}
	if n := a.srv.stats.PeerHits.Value(); n != 1 {
		t.Fatalf("peer hits = %d, want 1", n)
	}
	if n := b.srv.stats.PeerServes.Value(); n != 1 {
		t.Fatalf("owner peer serves = %d, want 1", n)
	}
	// The fetched bytes were promoted: the repeat is a memory cache hit,
	// not a second round-trip.
	respA2, _ := postBody(t, a.base+"/v1/run", body)
	if respA2.Header.Get(ResultHeader) != "cached" {
		t.Fatalf("repeat after peer hit served %q, want cached", respA2.Header.Get(ResultHeader))
	}
	if n := a.srv.stats.PeerHits.Value(); n != 1 {
		t.Fatalf("peer hits after repeat = %d, want still 1", n)
	}
}

// TestFleetMissThenReplicateToOwner: a non-owner that computes a key
// (after a clean peer miss — the owner answers 404, never an error)
// replicates the bytes to the owner synchronously, so the owner serves
// the very next request from its cache without executing.
func TestFleetMissThenReplicateToOwner(t *testing.T) {
	nodes := startChaosFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	body := bodyOwnedBy(t, "run", []string{a.base, b.base}, b.base)

	respA, bytesA := postBody(t, a.base+"/v1/run", body)
	if respA.StatusCode != 200 || respA.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("non-owner compute: status %d, served %q", respA.StatusCode, respA.Header.Get(ResultHeader))
	}
	if n := a.srv.stats.PeerMisses.Value(); n != 1 {
		t.Fatalf("peer misses = %d, want 1 (cold owner answers 404)", n)
	}
	if n := a.srv.stats.PeerErrors.Value(); n != 0 {
		t.Fatalf("peer errors = %d, want 0 (a clean miss is not an error)", n)
	}
	if n := a.srv.stats.ReplicatedOut.Value(); n != 1 {
		t.Fatalf("replications out = %d, want 1", n)
	}
	if n := b.srv.stats.ReplicatedIn.Value(); n != 1 {
		t.Fatalf("owner replications in = %d, want 1", n)
	}
	respB, bytesB := postBody(t, b.base+"/v1/run", body)
	if respB.Header.Get(ResultHeader) != "cached" {
		t.Fatalf("owner after replication served %q, want cached", respB.Header.Get(ResultHeader))
	}
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatalf("replicated body differs: %q vs %q", bytesA, bytesB)
	}
	if n := b.planner.execs.Load(); n != 0 {
		t.Fatalf("owner executed %d jobs, want 0 (replication filled its cache)", n)
	}
}

// TestFleetChaosPeerDown: the owner is unreachable (connection
// refused). The request still succeeds as a local recompute — 200,
// class "cold" — with the failure visible as peer_errors in /statsz.
func TestFleetChaosPeerDown(t *testing.T) {
	dead := deadPeerURL(t)
	cfg := smallConfig()
	cfg.FleetSelf = "http://replica-a.test"
	cfg.FleetPeers = []string{dead}
	cfg.PeerTimeout = 200 * time.Millisecond
	p := &fakePlanner{}
	s, ts := testServer(t, cfg, p)

	body := bodyOwnedBy(t, "run", []string{cfg.FleetSelf, dead}, dead)
	resp, b := postBody(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != 200 || resp.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("status %d, served %q, want 200/cold", resp.StatusCode, resp.Header.Get(ResultHeader))
	}
	if want := "resp:run|" + body; string(b) != want {
		t.Fatalf("body %q, want %q", b, want)
	}
	if n := s.stats.PeerErrors.Value(); n != 1 {
		t.Fatalf("peer errors = %d, want 1", n)
	}
	if n := p.execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1 (hedged to local recompute)", n)
	}

	// The failure is operationally visible: /statsz carries peer_errors
	// and the fleet block.
	stResp, stBody := postStats(t, ts.URL)
	defer stResp.Body.Close()
	var snap struct {
		PeerErrors int64 `json:"peer_errors"`
		Fleet      struct {
			Enabled bool     `json:"enabled"`
			Members []string `json:"members"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(stBody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.PeerErrors != 1 || !snap.Fleet.Enabled || len(snap.Fleet.Members) != 2 {
		t.Fatalf("statsz: peer_errors=%d enabled=%v members=%v", snap.PeerErrors, snap.Fleet.Enabled, snap.Fleet.Members)
	}
}

// postStats reads /statsz raw.
func postStats(t *testing.T, base string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestFleetChaosPeerSlow: the owner hangs past the per-attempt
// deadline. The fetch times out and the request hedges to local
// recompute — 200, never a 5xx, bounded by PeerTimeout.
func TestFleetChaosPeerSlow(t *testing.T) {
	peer := "http://slow-owner.test"
	cfg := smallConfig()
	cfg.FleetSelf = "http://replica-a.test"
	cfg.FleetPeers = []string{peer}
	cfg.PeerTimeout = 30 * time.Millisecond
	cfg.PeerTransport = rtFunc(func(r *http.Request) (*http.Response, error) {
		<-r.Context().Done() // hang until the attempt deadline fires
		return nil, r.Context().Err()
	})
	p := &fakePlanner{}
	s, ts := testServer(t, cfg, p)

	body := bodyOwnedBy(t, "run", []string{cfg.FleetSelf, peer}, peer)
	start := time.Now()
	resp, _ := postBody(t, ts.URL+"/v1/run", body)
	elapsed := time.Since(start)
	if resp.StatusCode != 200 || resp.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("status %d, served %q, want 200/cold", resp.StatusCode, resp.Header.Get(ResultHeader))
	}
	if n := s.stats.PeerErrors.Value(); n != 1 {
		t.Fatalf("peer errors = %d, want 1", n)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("slow peer stalled the request for %v; the fetch deadline did not bound it", elapsed)
	}
}

// TestFleetChaosCorruptPeerBytes: the owner answers 200 with bytes that
// fail their CRC. The client rejects them (never served, no retry
// against a liar) and the request recomputes locally — the response is
// the correct local bytes, not the corrupt ones.
func TestFleetChaosCorruptPeerBytes(t *testing.T) {
	peer := "http://corrupt-owner.test"
	corrupt := []byte(`{"tampered":true}`)
	cfg := smallConfig()
	cfg.FleetSelf = "http://replica-a.test"
	cfg.FleetPeers = []string{peer}
	cfg.PeerTransport = rtFunc(func(r *http.Request) (*http.Response, error) {
		h := make(http.Header)
		h.Set(fleet.HeaderCRC, "deadbeef") // does not match the body
		h.Set(fleet.HeaderCost, "12345")
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     h,
			Body:       io.NopCloser(bytes.NewReader(corrupt)),
		}, nil
	})
	p := &fakePlanner{}
	s, ts := testServer(t, cfg, p)

	body := bodyOwnedBy(t, "run", []string{cfg.FleetSelf, peer}, peer)
	resp, b := postBody(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != 200 || resp.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("status %d, served %q, want 200/cold", resp.StatusCode, resp.Header.Get(ResultHeader))
	}
	if bytes.Equal(b, corrupt) {
		t.Fatal("corrupt peer bytes were served to a client")
	}
	if want := "resp:run|" + body; string(b) != want {
		t.Fatalf("body %q, want locally recomputed %q", b, want)
	}
	if n := s.stats.PeerErrors.Value(); n != 1 {
		t.Fatalf("peer errors = %d, want 1", n)
	}
}

// TestFleetChaosMembershipChangeMidStream: membership grows to include
// a dead replica and shrinks back, under live traffic. Every request
// throughout answers 200; keys routed to the dead member hedge to
// local recompute and repeats hit the local cache.
func TestFleetChaosMembershipChangeMidStream(t *testing.T) {
	dead := deadPeerURL(t)
	cfg := smallConfig()
	cfg.FleetSelf = "http://replica-a.test"
	cfg.PeerTimeout = 200 * time.Millisecond
	p := &fakePlanner{}
	s, ts := testServer(t, cfg, p)

	// Alone on the ring: every key is self-owned, no peer traffic.
	resp, _ := postBody(t, ts.URL+"/v1/run", `{"solo":1}`)
	if resp.StatusCode != 200 || resp.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("solo: status %d, served %q", resp.StatusCode, resp.Header.Get(ResultHeader))
	}
	if n := s.stats.PeerErrors.Value() + s.stats.PeerMisses.Value(); n != 0 {
		t.Fatalf("solo ring produced %d peer counters, want 0", n)
	}

	// A dead replica joins: keys it owns now pay one failed fetch, then
	// recompute locally — still 200.
	s.SetFleetMembers([]string{cfg.FleetSelf, dead})
	deadOwned := bodyOwnedBy(t, "run", []string{cfg.FleetSelf, dead}, dead)
	resp, _ = postBody(t, ts.URL+"/v1/run", deadOwned)
	if resp.StatusCode != 200 || resp.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("dead member joined: status %d, served %q", resp.StatusCode, resp.Header.Get(ResultHeader))
	}
	if n := s.stats.PeerErrors.Value(); n != 1 {
		t.Fatalf("peer errors = %d, want 1", n)
	}
	// The recompute landed in the local cache: the repeat does not pay a
	// second fetch at the dead member.
	resp, _ = postBody(t, ts.URL+"/v1/run", deadOwned)
	if resp.Header.Get(ResultHeader) != "cached" {
		t.Fatalf("repeat served %q, want cached", resp.Header.Get(ResultHeader))
	}
	if n := s.stats.PeerErrors.Value(); n != 1 {
		t.Fatalf("peer errors after cached repeat = %d, want still 1", n)
	}

	// The dead member leaves: the same key is self-owned again and new
	// keys never touch the peer path.
	s.SetFleetMembers([]string{cfg.FleetSelf})
	resp, _ = postBody(t, ts.URL+"/v1/run", `{"after":1}`)
	if resp.StatusCode != 200 || resp.Header.Get(ResultHeader) != "cold" {
		t.Fatalf("after shrink: status %d, served %q", resp.StatusCode, resp.Header.Get(ResultHeader))
	}
	if n := s.stats.PeerErrors.Value() + s.stats.PeerMisses.Value(); n != 1 {
		t.Fatalf("shrunk ring added peer counters: %d, want 1 (the earlier error only)", n)
	}
}

// TestFleetSingleInstanceUnchanged: without FleetSelf the peer endpoint
// does not exist and /statsz carries a disabled fleet block — the
// single-instance surface is exactly the pre-fleet one.
func TestFleetSingleInstanceUnchanged(t *testing.T) {
	p := &fakePlanner{}
	_, ts := testServer(t, smallConfig(), p)
	resp, err := http.Get(ts.URL + "/v1/peer/somekey")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("single instance /v1/peer/ answered %d, want 404 (route absent)", resp.StatusCode)
	}
	_, stBody := postStats(t, ts.URL)
	var snap struct {
		Fleet struct {
			Enabled bool `json:"enabled"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(stBody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Fleet.Enabled {
		t.Fatal("single instance reports fleet enabled")
	}
}

// TestFleetPeerEndpointRejectsMalformed: the peer endpoint validates
// its inputs — empty or path-like keys are 400, a PUT whose bytes fail
// their CRC is rejected before touching any cache, and non-GET/PUT
// methods are 405.
func TestFleetPeerEndpointRejectsMalformed(t *testing.T) {
	cfg := smallConfig()
	cfg.FleetSelf = "http://replica-a.test"
	p := &fakePlanner{}
	s, ts := testServer(t, cfg, p)
	client := &http.Client{Timeout: 5 * time.Second}

	do := func(method, path string, body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := do(http.MethodGet, "/v1/peer/", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty key: %d, want 400", resp.StatusCode)
	}
	if resp := do(http.MethodGet, "/v1/peer/a/b", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("path-like key: %d, want 400", resp.StatusCode)
	}
	if resp := do(http.MethodDelete, "/v1/peer/k", "", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %d, want 405", resp.StatusCode)
	}
	if resp := do(http.MethodPut, "/v1/peer/k", "payload", map[string]string{fleet.HeaderCRC: "deadbeef"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("CRC-mismatched PUT: %d, want 400", resp.StatusCode)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("rejected PUT reached the cache: %d entries", n)
	}
	// A well-formed PUT is accepted and served back by GET.
	good := []byte(`{"ok":1}`)
	if resp := do(http.MethodPut, "/v1/peer/k", string(good), map[string]string{
		fleet.HeaderCRC:  fleet.Checksum(good),
		fleet.HeaderCost: "777",
	}); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid PUT: %d, want 204", resp.StatusCode)
	}
	resp, err := client.Get(ts.URL + "/v1/peer/k")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(b, good) {
		t.Fatalf("GET after PUT: %d %q", resp.StatusCode, b)
	}
	if got := resp.Header.Get(fleet.HeaderCRC); got != fleet.Checksum(good) {
		t.Fatalf("GET CRC header %q, want %q", got, fleet.Checksum(good))
	}
	if got := resp.Header.Get(fleet.HeaderCost); got != "777" {
		t.Fatalf("GET cost header %q, want 777 (replicated cost retained)", got)
	}
}

// TestResultCacheCostAwareEviction: the acceptance regression — a cheap
// bulky entry is evicted before an expensive compact one, even though
// the expensive one is older and LRU alone would have evicted it first.
func TestResultCacheCostAwareEviction(t *testing.T) {
	c := newResultCache(100, 100)
	c.putCost("expensive-small", bytes.Repeat([]byte("x"), 10), 10_000_000_000) // 1e9 ns/B
	c.putCost("cheap-large", bytes.Repeat([]byte("y"), 80), 80)                 // 1 ns/B, most recently used
	// 90/100 bytes used; 20 more must evict someone. LRU would pick
	// expensive-small (older); cost-aware must pick cheap-large.
	c.putCost("next", bytes.Repeat([]byte("z"), 20), 20_000_000) // 1e6 ns/B
	if _, ok := c.get("cheap-large"); ok {
		t.Fatal("cheap large entry survived eviction")
	}
	if _, _, ok := c.getCost("expensive-small"); !ok {
		t.Fatal("expensive small entry was evicted")
	}
	if _, ok := c.get("next"); !ok {
		t.Fatal("newly inserted entry missing")
	}
	// All-zero costs degrade to exact LRU: the least recently used goes
	// first, so layers that never learned costs behave as before.
	lru := newResultCache(2, 1<<20)
	lru.put("old", []byte("a"))
	lru.put("mid", []byte("b"))
	lru.get("old") // old is now more recently used than mid
	lru.put("new", []byte("c"))
	if _, ok := lru.get("mid"); ok {
		t.Fatal("zero-cost eviction did not follow LRU order")
	}
	if _, ok := lru.get("old"); !ok {
		t.Fatal("zero-cost eviction removed the recently used entry")
	}
}
