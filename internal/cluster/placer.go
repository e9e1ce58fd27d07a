// Package cluster is the multi-node serving layer: a static membership
// of vstore nodes, a rendezvous-hash placement of streams onto them, and
// a stateless router that serves the single-node HTTP API over the whole
// fleet — queries fan out in chunks to the owning node (failing over to
// replica followers), ingest forwards to the owner and replicates to the
// followers, and statistics aggregate across every node. The router keeps
// no durable state of its own: the membership is its only configuration,
// so any number of routers can front the same nodes.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Node is one store node in the static membership.
type Node struct {
	// Name is the node's stable identity — what the hash placements key
	// on, so renaming a node moves its streams.
	Name string `json:"name"`
	// URL is the node's API base, e.g. "http://10.0.0.3:8080".
	URL string `json:"url"`
}

// Placer maps a stream to the nodes serving it, in preference order: the
// first node is the owner (all writes, first choice for reads), the rest
// are replica followers. Placements are pure functions of (stream,
// membership) — every router derives the same answer with no
// coordination.
//
// The mapping is rendezvous (highest-random-weight) hashing: every node
// scores hash(stream, node) and the placement is the nodes by descending
// score. Removing a node disturbs only the streams it served — the
// defining property that makes failover and membership change cheap.
type Placer struct {
	nodes []Node
}

// NewPlacer validates the membership and builds its placer.
func NewPlacer(nodes []Node) (*Placer, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: placement needs at least one node")
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if n.Name == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node needs both a name and a URL, got %+v", n)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	return &Placer{nodes: append([]Node(nil), nodes...)}, nil
}

func hash64(parts ...string) uint64 {
	h := fnv.New64a()
	for i, p := range parts {
		if i > 0 {
			_, _ = h.Write([]byte{0})
		}
		_, _ = h.Write([]byte(p))
	}
	return fmix64(h.Sum64())
}

// fmix64 is the murmur3 finalizer. FNV-1a alone keeps short inputs (node
// and stream names) in a narrow band of the 64-bit range, which skews
// ownership towards one node; the extra avalanche spreads them.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Place returns min(replicas, len(nodes)) distinct nodes for stream,
// owner first. replicas < 1 is treated as 1.
func (p *Placer) Place(stream string, replicas int) []Node {
	if replicas < 1 {
		replicas = 1
	}
	type scored struct {
		node  Node
		score uint64
	}
	ranked := make([]scored, len(p.nodes))
	for i, n := range p.nodes {
		ranked[i] = scored{node: n, score: hash64(stream, n.Name)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].node.Name < ranked[j].node.Name
	})
	if replicas > len(ranked) {
		replicas = len(ranked)
	}
	out := make([]Node, replicas)
	for i := range out {
		out[i] = ranked[i].node
	}
	return out
}
