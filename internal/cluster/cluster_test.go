package cluster_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/vidsim"
)

// testConfig derives the small two-operator configuration every node in
// these tests runs, memoised across tests (derivation profiles
// operators, which is expensive under the race detector).
func testConfig(t testing.TB) *core.Config {
	t.Helper()
	cfgOnce.Do(func() { cfgShared = deriveTestConfig(t) })
	if cfgShared == nil {
		t.Fatal("config derivation failed in an earlier test")
	}
	return cfgShared
}

var (
	cfgOnce   sync.Once
	cfgShared *core.Config
)

func deriveTestConfig(t testing.TB) *core.Config {
	t.Helper()
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(sc)
	p.ClipFrames = 120
	consumers := []core.Consumer{
		{Op: ops.Motion{}, Target: 0.9, Prof: p},
		{Op: ops.License{}, Target: 0.9, Prof: p},
		{Op: ops.OCR{}, Target: 0.9, Prof: p},
	}
	choices := core.DeriveConsumptionFormats(consumers)
	d, err := core.DeriveStorageFormats(choices, core.SFOptions{Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &core.Config{Derivation: d}
	cfg.Runtime.CacheBytes = 32 << 20
	return cfg
}

const testQuery = "B"

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// canon strips the wall-clock-derived fields (virtual seconds, speedup)
// from chunks so byte-identity compares results, not timings.
func canon(chunks []api.QueryChunk) []api.QueryChunk {
	out := append([]api.QueryChunk(nil), chunks...)
	for i := range out {
		out[i].VirtualSeconds = 0
		out[i].Speed = 0
	}
	return out
}

// testNode is one in-process store node behind its HTTP API.
type testNode struct {
	node cluster.Node
	srv  *server.Server
	as   *api.Server
	cl   *api.Client
	once sync.Once
}

// shutdown drains the node's HTTP surface; idempotent so a test can kill
// a node mid-test and the cleanup stays safe.
func (n *testNode) shutdown(t *testing.T) {
	t.Helper()
	n.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := n.as.Shutdown(ctx); err != nil {
			t.Errorf("node %s shutdown: %v", n.node.Name, err)
		}
	})
}

func startNode(t *testing.T, name string) *testNode {
	t.Helper()
	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	as := api.New(srv, api.Limits{})
	addr, err := as.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &testNode{
		node: cluster.Node{Name: name, URL: "http://" + addr.String()},
		srv:  srv,
		as:   as,
		cl:   api.NewClient("http://" + addr.String()),
	}
	t.Cleanup(func() {
		n.shutdown(t)
		if err := srv.Close(); err != nil {
			t.Errorf("node %s close: %v", name, err)
		}
	})
	return n
}

func startRouter(t *testing.T, opts cluster.Options) (*cluster.Router, *api.Client, string) {
	t.Helper()
	rt, err := cluster.NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	})
	url := "http://" + addr.String()
	return rt, api.NewClient(url), url
}

// streamOwnedBy finds a stream name whose placement puts the wanted
// owner first — how tests pin which node a stream lands on without
// fixing the hash function's output in stone.
func streamOwnedBy(t *testing.T, place func(stream string) []cluster.Node, owner string) string {
	t.Helper()
	for i := 0; i < 1024; i++ {
		name := fmt.Sprintf("cam-%d", i)
		if place(name)[0].Name == owner {
			return name
		}
	}
	t.Fatalf("no probe stream hashed onto %q in 1024 tries", owner)
	return ""
}

// TestPlacers pins the placement contract: deterministic across
// instances, distinct nodes owner-first, replica clamping, reasonable
// spread, and a stream's owner staying put when an unrelated node leaves
// — the property failover relies on.
func TestPlacers(t *testing.T) {
	nodes := []cluster.Node{
		{Name: "a", URL: "http://a"},
		{Name: "b", URL: "http://b"},
		{Name: "c", URL: "http://c"},
	}
	t.Run("rendezvous", func(t *testing.T) {
		p1, err := cluster.NewPlacer(nodes)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := cluster.NewPlacer(nodes)
		if err != nil {
			t.Fatal(err)
		}
		owned := map[string]int{}
		for i := 0; i < 64; i++ {
			stream := fmt.Sprintf("stream-%d", i)
			got := p1.Place(stream, 2)
			if len(got) != 2 {
				t.Fatalf("%s: %d nodes for replicas=2", stream, len(got))
			}
			if got[0].Name == got[1].Name {
				t.Fatalf("%s: owner and follower are the same node", stream)
			}
			if again := p2.Place(stream, 2); mustMarshal(t, got) != mustMarshal(t, again) {
				t.Fatalf("%s: placement differs across placer instances", stream)
			}
			if all := p1.Place(stream, 99); len(all) != len(nodes) {
				t.Fatalf("%s: replicas beyond membership returned %d nodes", stream, len(all))
			}
			if one := p1.Place(stream, 0); len(one) != 1 {
				t.Fatalf("%s: replicas=0 returned %d nodes, want the owner", stream, len(one))
			}
			owned[got[0].Name]++
		}
		for _, n := range nodes {
			if owned[n.Name] == 0 {
				t.Errorf("node %s owns no stream of 64 — placement is not spreading", n.Name)
			}
		}
	})

	// Rendezvous minimal disruption: drop node c; streams c did not own
	// keep their owner.
	full, err := cluster.NewPlacer(nodes)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := cluster.NewPlacer(nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 64; i++ {
		stream := fmt.Sprintf("stream-%d", i)
		before := full.Place(stream, 1)[0].Name
		after := reduced.Place(stream, 1)[0].Name
		if before != "c" && before != after {
			t.Fatalf("%s: owner moved %s -> %s though its owner never left", stream, before, after)
		}
		if before == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Error("node c owned nothing — the disruption check proved nothing")
	}
}

func TestNewPlacerRejects(t *testing.T) {
	good := []cluster.Node{{Name: "a", URL: "http://a"}}
	if _, err := cluster.NewPlacer(nil); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := cluster.NewPlacer([]cluster.Node{{Name: "a"}}); err == nil {
		t.Error("node without URL accepted")
	}
	if _, err := cluster.NewPlacer(append(good, cluster.Node{Name: "a", URL: "http://b"})); err == nil {
		t.Error("duplicate node name accepted")
	}
}

// TestRouterMergeDeterminism is the fan-out/merge contract: with two
// streams split across a two-node cluster, a chunked query through the
// router is byte-identical to the same query against the owning node
// alone — at every worker count, because the merge orders by segment,
// not by completion.
func TestRouterMergeDeterminism(t *testing.T) {
	n1, n2 := startNode(t, "n1"), startNode(t, "n2")
	nodes := []cluster.Node{n1.node, n2.node}
	rt1, rcl1, _ := startRouter(t, cluster.Options{Nodes: nodes, Workers: 1})
	_, rcl2, _ := startRouter(t, cluster.Options{Nodes: nodes, Workers: 2})
	_, rcl8, rurl8 := startRouter(t, cluster.Options{Nodes: nodes, Workers: 8})

	ctx := context.Background()
	streams := map[string]*testNode{
		streamOwnedBy(t, rt1.Place, "n1"): n1,
		streamOwnedBy(t, rt1.Place, "n2"): n2,
	}
	if len(streams) != 2 {
		t.Fatal("probe streams collided")
	}
	for stream := range streams {
		if _, err := rcl1.Ingest(ctx, api.IngestRequest{Stream: stream, Scene: "jackson", Segments: 3}); err != nil {
			t.Fatalf("ingest %s through router: %v", stream, err)
		}
	}

	// The split happened: each node holds exactly its own stream.
	for stream, owner := range streams {
		other := n1
		if owner == n1 {
			other = n2
		}
		ownerStreams, err := owner.cl.Streams(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ownerStreams[stream].Segments != 3 {
			t.Fatalf("owner %s holds %d segments of %s, want 3", owner.node.Name, ownerStreams[stream].Segments, stream)
		}
		otherStreams, err := other.cl.Streams(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, leaked := otherStreams[stream]; leaked {
			t.Fatalf("stream %s leaked onto %s — not a split", stream, other.node.Name)
		}
	}

	for stream, owner := range streams {
		for _, chunk := range []int{0, 1} {
			req := api.QueryRequest{Stream: stream, Query: testQuery, Chunk: chunk}
			wantChunks, wantSum, err := owner.cl.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s chunk=%d: single-node query: %v", stream, chunk, err)
			}
			for name, rcl := range map[string]*api.Client{"w1": rcl1, "w2": rcl2, "w8": rcl8} {
				gotChunks, gotSum, err := rcl.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s chunk=%d via %s: %v", stream, chunk, name, err)
				}
				if l, r := mustMarshal(t, canon(wantChunks)), mustMarshal(t, canon(gotChunks)); l != r {
					t.Fatalf("%s chunk=%d via %s: chunks differ\nnode   %s\nrouter %s", stream, chunk, name, l, r)
				}
				if gotSum.Chunks != wantSum.Chunks || gotSum.Segments != wantSum.Segments {
					t.Fatalf("%s chunk=%d via %s: summary %+v, node %+v", stream, chunk, name, gotSum, wantSum)
				}
			}
		}
	}

	// The router's aggregation and introspection surfaces see the fleet.
	var stats cluster.StatsResponse
	getJSON(t, rurl8+"/v1/stats", &stats)
	if stats.Nodes["n1"] == nil || stats.Nodes["n2"] == nil {
		t.Fatalf("aggregated stats missing a node: %v", stats.Unreachable)
	}
	var info cluster.ClusterResponse
	getJSON(t, rurl8+"/v1/cluster", &info)
	if len(info.Nodes) != 2 || !info.Nodes[0].OK || !info.Nodes[1].OK {
		t.Fatalf("cluster introspection: %+v", info.Nodes)
	}
	for stream := range streams {
		if len(info.Placements[stream]) == 0 {
			t.Fatalf("no placement reported for %s", stream)
		}
	}
	resp, err := http.Get(rurl8 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `vstore_router_node_up{node="n1"} 1`) {
		t.Fatalf("metrics missing node liveness:\n%s", body)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRouterFailoverOnDrainedOwner: with replication factor 2, an ingest
// through the router reaches the follower (the router counts the
// replication), and reads survive the owner going away — the router fails
// over to the follower, the client sees identical results and zero
// errors, and the degraded route is counted.
func TestRouterFailoverOnDrainedOwner(t *testing.T) {
	owner, follower := startNode(t, "owner"), startNode(t, "follower")
	rt, rcl, rurl := startRouter(t, cluster.Options{
		Nodes:    []cluster.Node{owner.node, follower.node},
		Replicas: 2,
		Workers:  2,
	})
	ctx := context.Background()
	stream := streamOwnedBy(t, rt.Place, "owner")
	if _, err := rcl.Ingest(ctx, api.IngestRequest{Stream: stream, Scene: "jackson", Segments: 3}); err != nil {
		t.Fatal(err)
	}
	waitForReplication(t, rurl)

	want, _, err := follower.cl.Query(ctx, api.QueryRequest{Stream: stream, Query: testQuery, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The owner goes away (drain: every request 503s from here).
	owner.shutdown(t)
	got, sum, err := rcl.Query(ctx, api.QueryRequest{Stream: stream, Query: testQuery, Chunk: 1})
	if err != nil {
		t.Fatalf("query with the owner down: %v", err)
	}
	if l, r := mustMarshal(t, canon(want)), mustMarshal(t, canon(got)); l != r {
		t.Fatalf("failover results differ:\nfollower %s\nrouter   %s", l, r)
	}
	if sum.Chunks != 3 {
		t.Fatalf("failover summary %+v, want 3 chunks", sum)
	}
	if rt.DegradedRoutes() == 0 {
		t.Fatal("owner was down but DegradedRoutes never moved")
	}
}

// waitForReplication waits until the router's /v1/stats counts a completed
// follower pull: the router counts it once the follower has adopted the
// stream, so the follower then holds every segment the owner had.
func waitForReplication(t *testing.T, url string) {
	t.Helper()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(60 * time.Second)
	for {
		var stats cluster.StatsResponse
		getJSON(t, url+"/v1/stats", &stats)
		if stats.Router.Replications >= 1 {
			return
		}
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("follower replication never completed: %+v", stats.Router)
		}
	}
}

// TestRouterSubscribeProxy: a standing query through the router lands on
// the stream's owner and pushes commits back through the proxy.
func TestRouterSubscribeProxy(t *testing.T) {
	n1, n2 := startNode(t, "n1"), startNode(t, "n2")
	rt, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{n1.node, n2.node}})
	stream := streamOwnedBy(t, rt.Place, "n2")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acks := make(chan api.SubAck, 1)
	chunks := make(chan api.QueryChunk, 16)
	done := make(chan error, 1)
	go func() {
		_, err := rcl.Subscribe(ctx, api.SubscribeRequest{Stream: stream, Query: testQuery}, func(ev api.SubEvent) error {
			switch {
			case ev.Ack != nil:
				acks <- *ev.Ack
			case ev.Chunk != nil:
				chunks <- *ev.Chunk
			}
			return nil
		})
		done <- err
	}()
	select {
	case <-acks:
	case err := <-done:
		t.Fatalf("subscription ended before its ack: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no subscription ack through the router")
	}
	if _, err := rcl.Ingest(context.Background(), api.IngestRequest{Stream: stream, Scene: "jackson", Segments: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-chunks:
		if c.Seg0 != 0 || c.Seg1 != 1 {
			t.Fatalf("pushed chunk spans [%d,%d), want [0,1)", c.Seg0, c.Seg1)
		}
	case err := <-done:
		t.Fatalf("subscription ended before its push: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("commit never reached the subscriber through the proxy")
	}
	cancel()
	select {
	case <-done: // canceling client-side ends the proxy stream; any error is ours
	case <-time.After(10 * time.Second):
		t.Fatal("subscription stream did not end on cancel")
	}
}

// TestClusterNodeChild is the victim half of the kill harness — not a
// test on its own. With VSTORE_CLUSTER_NODE_DIR set it opens the store
// there (configuration and footage were committed by the parent), serves
// the HTTP API on a free port, prints the address, and waits for the
// parent's SIGKILL. Failures exit non-zero so the parent can tell "child
// broke" from "child was killed".
func TestClusterNodeChild(t *testing.T) {
	dir := os.Getenv("VSTORE_CLUSTER_NODE_DIR")
	if dir == "" {
		t.Skip("cluster kill-harness child; run via TestRouterKillNodeFailover")
	}
	srv, err := server.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster child open:", err)
		os.Exit(3)
	}
	as := api.New(srv, api.Limits{})
	addr, err := as.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster child listen:", err)
		os.Exit(3)
	}
	fmt.Printf("NODE_ADDR http://%s\n", addr)
	for {
		time.Sleep(time.Hour) // only the SIGKILL ends this
	}
}

// TestRouterKillNodeFailover is the kill-a-node contract: SIGKILL the
// stream's owner in the middle of a chunked query and the client must
// see nothing — the remaining chunks fail over to the replica follower,
// arrive byte-identical, and the degraded-route counter moves.
func TestRouterKillNodeFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a child process")
	}

	// The victim's store is prepared here, then served by the child: a
	// kill mid-query must not cost committed footage its readability.
	stream := func() string {
		placer, err := cluster.NewPlacer([]cluster.Node{
			{Name: "victim", URL: "http://x"}, {Name: "survivor", URL: "http://y"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return streamOwnedBy(t, func(s string) []cluster.Node { return placer.Place(s, 1) }, "victim")
	}()
	const segments = 5
	victimDir := t.TempDir()
	prep, err := server.Open(victimDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Ingest(sc, stream, segments); err != nil {
		t.Fatal(err)
	}
	if err := prep.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestClusterNodeChild$", "-test.v")
	cmd.Env = append(os.Environ(), "VSTORE_CLUSTER_NODE_DIR="+victimDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if url, ok := strings.CutPrefix(sc.Text(), "NODE_ADDR "); ok {
				addrCh <- url
				return
			}
		}
	}()
	var victimURL string
	select {
	case victimURL = <-addrCh:
	case <-time.After(60 * time.Second):
		t.Fatal("child node never reported its address")
	}

	survivor := startNode(t, "survivor")
	rt, rcl, _ := startRouter(t, cluster.Options{
		Nodes: []cluster.Node{
			{Name: "victim", URL: victimURL},
			survivor.node,
		},
		Replicas: 2,
		Workers:  1, // sequential chunks: the kill lands with spans still pending
	})

	// Replicate the stream onto the survivor before the kill — R=2 means
	// the follower already holds every committed segment.
	ctx := context.Background()
	pulled, err := survivor.cl.Pull(ctx, api.PullRequest{Stream: stream, Source: victimURL})
	if err != nil {
		t.Fatal(err)
	}
	if pulled.Segments != segments {
		t.Fatalf("replication adopted %d segments, want %d", pulled.Segments, segments)
	}
	want, _, err := survivor.cl.Query(ctx, api.QueryRequest{Stream: stream, Query: testQuery, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The query: kill the owner the moment its first chunk arrives. The
	// stream must keep flowing — every remaining chunk from the follower,
	// no client-visible error anywhere.
	var got []api.QueryChunk
	var killOnce sync.Once
	sum, err := rcl.QueryStream(ctx, api.QueryRequest{Stream: stream, Query: testQuery, Chunk: 1}, func(c api.QueryChunk) error {
		got = append(got, c)
		killOnce.Do(func() {
			if err := cmd.Process.Kill(); err != nil {
				t.Errorf("kill: %v", err)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatalf("query through the kill: %v", err)
	}
	if sum.Chunks != segments || len(got) != segments {
		t.Fatalf("got %d chunks (summary %d), want %d", len(got), sum.Chunks, segments)
	}
	if l, r := mustMarshal(t, canon(want)), mustMarshal(t, canon(got)); l != r {
		t.Fatalf("chunks through the kill differ from the follower's:\nfollower %s\nrouter   %s", l, r)
	}
	if rt.DegradedRoutes() == 0 {
		t.Fatal("the owner died mid-query but DegradedRoutes never moved")
	}

	// The cluster keeps answering with the owner gone for good.
	again, sum2, err := rcl.Query(ctx, api.QueryRequest{Stream: stream, Query: testQuery, Chunk: 1})
	if err != nil {
		t.Fatalf("query after the kill: %v", err)
	}
	if sum2.Chunks != segments || mustMarshal(t, canon(again)) != mustMarshal(t, canon(want)) {
		t.Fatalf("post-kill query diverged: %d chunks", sum2.Chunks)
	}
}
