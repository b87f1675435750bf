package cluster_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/circuit"
	"repro/internal/qmat"
	"repro/synth"
	"repro/synth/serve"
	"repro/synth/serve/cluster"
)

// TestClusterRefusesBadRecords: entries arriving from a peer go through
// synth.Record's decoder, which refuses what would otherwise be stored as
// a wrong answer. A push the decoder refuses (no seq, an unknown
// mnemonic, the pre-record {key, entry} body, a wrong snapshot version)
// gets 400 and stores nothing. A lookup answer without seq is a peer
// error: it counts in PeerErrors and against the owner's breaker, and the
// request falls through to local synthesis instead of serving the
// identity.
func TestClusterRefusesBadRecords(t *testing.T) {
	tc := newTestCluster(t, "a", "b")
	// b is a stand-in owner that answers every lookup for exactly the
	// asked key, but without its seq.
	var lookups, other atomic.Int64
	tc.nodes["b"].late.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/peer/cache" {
			other.Add(1)
			http.Error(w, "unexpected", http.StatusTeapot)
			return
		}
		lookups.Add(1)
		q := r.URL.Query()
		fmt.Fprintf(w, `{"gate":%s,"a":%s,"b":%s,"c":%s,"eps":%s,"cfg":%s,"scope":%q,"err":0.001}`,
			q.Get("gate"), q.Get("a"), q.Get("b"), q.Get("c"), q.Get("eps"), q.Get("cfg"), q.Get("scope"))
	}))
	// Threshold 1 with a long cooldown: the one bad answer opens b's
	// breaker, so the push after the local synthesis is skipped, not sent.
	a := tc.startWith("a", cluster.Config{
		LookupTimeout: 2 * time.Second,
		Breaker:       cluster.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	}, serve.Config{DefaultBackend: "gridsynth"})

	// Push side, against a's own peer endpoint.
	const key = `"gate":3,"a":123,"eps":1000,"cfg":7,"scope":"gridsynth"`
	put := func(body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, a.hs.URL+"/v1/peer/cache", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	for name, body := range map[string]string{
		"no seq":        `{"version":1,"entries":[{` + key + `,"err":0.001}]}`,
		"blank seq":     `{"version":1,"entries":[{` + key + `,"seq":" ","err":0.001}]}`,
		"bad mnemonic":  `{"version":1,"entries":[{` + key + `,"seq":"T NOTAGATE","err":0.001}]}`,
		"old body":      `{"key":{` + key + `},"entry":{"seq":"T","err":0.001}}`,
		"wrong version": `{"version":2,"entries":[{` + key + `,"seq":"T","err":0.001}]}`,
	} {
		if code := put(body); code != http.StatusBadRequest {
			t.Errorf("push with %s: HTTP %d, want 400", name, code)
		}
	}
	if n := a.srv.Cache().Len(); n != 0 {
		t.Fatalf("refused pushes stored %d entries", n)
	}
	if code := put(`{"version":1,"entries":[{` + key + `,"seq":"T","err":0.001}]}`); code != http.StatusNoContent {
		t.Fatalf("valid one-record push: HTTP %d, want 204", code)
	}
	k := synth.Key{Gate: circuit.GateType(3), A: 123, Eps: 1000, Cfg: 7, Scope: "gridsynth"}
	if e, ok := a.srv.Cache().Peek(k); !ok || e.Seq.String() != "T" || e.Err != 0.001 {
		t.Fatalf("valid push stored (%+v, %v), want T at 0.001", e, ok)
	}

	// Lookup side: a fresh b-owned rotation asks b, gets a record without
	// seq, and synthesizes locally.
	angles := anglesOwnedBy(t, a, "b", 2, 0.41)
	th := angles[0]
	resp, err := tc.synthesize("a", "gridsynth", th)
	if err != nil {
		t.Fatal(err)
	}
	tc.flush()
	if r := resp.Results[0]; r.Seq == "" || r.Seq == "I" || r.TCount == 0 {
		t.Fatalf("rz(%v) answered %+v, want a local synthesis", th, r)
	}
	st := a.node.Stats()
	if lookups.Load() != 1 || st.PeerErrors != 1 || st.PeerHits != 0 || st.PeerMisses != 0 {
		t.Fatalf("%d lookups reached b; stats %+v, want 1 lookup counted as one peer error", lookups.Load(), st)
	}
	if br := breakerFor(t, a, "b"); br.State != "open" || st.BreakerTrips != 1 {
		t.Fatalf("bad answer did not count against b's breaker: %+v, trips %d", br, st.BreakerTrips)
	}
	if other.Load() != 0 || st.Pushes != 0 {
		t.Fatalf("%d other requests reached b, %d pushes; want none past the open breaker", other.Load(), st.Pushes)
	}

	// A well-formed answer for another key is refused the same way: an
	// entry is only ever stored under the key its record names.
	stray := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{`+key+`,"seq":"T","err":0.001}`)
	}))
	defer stray.Close()
	n, err := cluster.New(cluster.Config{SelfID: "a", Peers: map[string]string{"b": stray.URL}})
	if err != nil {
		t.Fatal(err)
	}
	c := synth.NewCache(8)
	n.Attach(c)
	if _, ok := c.Get(synth.KeyForTarget(qmat.Rz(angles[1]), "gridsynth", synth.Request{Epsilon: 1e-2})); ok || c.Len() != 0 {
		t.Fatalf("answer for another key served as a hit (cache holds %d)", c.Len())
	}
	if st := n.Stats(); st.PeerErrors != 1 || st.PeerHits != 0 {
		t.Fatalf("answer for another key: stats %+v, want one peer error", st)
	}
}
