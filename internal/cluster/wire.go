// Wire types of the router's own HTTP surface. Endpoints shared with a
// single node (/v1/query, /v1/ingest, /v1/subscribe, /v1/streams) speak
// the api package's wire types unchanged — a client cannot tell a router
// from a node on those paths. The types here cover what only a cluster
// has: aggregated statistics and placement introspection.

package cluster

import "repro/internal/api"

// RouterStats is the router's own health: how often reads had to fail
// over from a stream's owner to a replica follower, and how replication
// fan-out is doing.
type RouterStats struct {
	// DegradedRoutes counts candidate nodes skipped while routing a read:
	// every query that had to move past a dead, refusing or short node
	// adds one. Zero means every read ran on its stream's owner.
	DegradedRoutes int64 `json:"degraded_routes"`
	// Replications counts follower pulls completed after ingests.
	Replications int64 `json:"replications"`
	// ReplicationErrors counts follower pulls that failed; the next
	// ingest's pull retries the whole stream (pulls are idempotent).
	ReplicationErrors int64                        `json:"replication_errors"`
	Endpoints         map[string]api.EndpointStats `json:"endpoints"`
}

// StatsResponse is the body of the router's GET /v1/stats: its own
// counters plus every reachable node's full single-node stats.
type StatsResponse struct {
	Router RouterStats                   `json:"router"`
	Nodes  map[string]*api.StatsResponse `json:"nodes"`
	// Unreachable maps a node name to the error that kept its stats out.
	Unreachable map[string]string `json:"unreachable,omitempty"`
}

// NodeStatus is one node's liveness in GET /v1/cluster.
type NodeStatus struct {
	Node
	OK       bool   `json:"ok"`
	Draining bool   `json:"draining,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ClusterResponse is the body of GET /v1/cluster: the membership, the
// placement configuration, and where every known stream lives (owner
// first, then its replica followers).
type ClusterResponse struct {
	Replicas   int                 `json:"replicas"`
	Nodes      []NodeStatus        `json:"nodes"`
	Placements map[string][]string `json:"placements,omitempty"`
}
