// Command vstore is the store's operational CLI: derive a configuration,
// ingest streams under it, run queries, apply age-based erosion, serve
// live traffic (in-process or over HTTP), and report store statistics.
// Every verb that touches a store opens it through internal/server, so
// configuration epochs, the segment manifest and stream positions govern
// them all alike.
//
// Usage:
//
//	vstore configure -db DIR [-ingest-cores N] [-storage-gb N] [-lifespan D] [-clip frames]
//	                 [-shards N] [-fast-gb N] [-demote-after D] [-results-mb N]
//	vstore ingest    -db DIR -scene NAME [-segments N] [-shards N]
//	vstore query     -db DIR -scene NAME -query A|B [-accuracy F] [-from I] [-to I]
//	vstore erode     -db DIR -scene NAME [-today D]
//	vstore serve     -db DIR [-streams A,B] [-segments N] [-queries N] [-query A|B] [-accuracy F]
//	                 [-erode-interval D] [-today D] [-shards N] [-fast-bytes N] [-demote-after D]
//	vstore api       -db DIR [-listen :8080] [-max-inflight N] [-max-queue N] [-max-subs N] [-tenants FILE]
//	                 [-query-timeout D] [-erode-interval D] [-today D] [-shards N] [-fast-bytes N] [-demote-after D]
//	vstore route     -nodes n1=http://H:P,n2=http://H:P[,...] [-listen :8090] [-replicas N] [-workers N]
//	vstore scrub     -db DIR [-shards N]
//	vstore damage    -db DIR -stream NAME [-segment I] [-sf KEY] [-shards N]
//	vstore stats     -db DIR
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/ops"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/tenant"
	"repro/internal/vidsim"
)

var verbs = map[string]func(args []string) error{
	"configure": cmdConfigure,
	"ingest":    cmdIngest,
	"query":     cmdQuery,
	"erode":     cmdErode,
	"serve":     cmdServe,
	"api":       cmdAPI,
	"route":     cmdRoute,
	"scrub":     cmdScrub,
	"damage":    cmdDamage,
	"stats":     cmdStats,
}

func main() {
	if len(os.Args) < 2 || verbs[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, `usage: vstore <configure|ingest|query|erode|serve|api|route|scrub|damage|stats> [flags]`)
		os.Exit(2)
	}
	// Fault injection is boot-time wiring: VSTORE_FAULTS (with
	// VSTORE_FAULT_SEED) arms the kvstore failpoints for every verb —
	// how TestServeProcesses and the crash harness induce storage
	// outages. Unset, this is a no-op.
	if on, err := fault.InstallFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "vstore:", err)
		os.Exit(1)
	} else if on {
		fmt.Fprintln(os.Stderr, "vstore: fault injection armed from VSTORE_FAULTS")
	}
	if err := verbs[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "vstore:", err)
		os.Exit(1)
	}
}

func configPath(db string) string { return filepath.Join(db, "config.json") }

// openConfiguredServer is how every verb reaches a store: resolve the
// shard count before the store opens (layout is a creation-time property,
// read from the saved configuration when the flag is silent — an existing
// on-disk layout wins over both), open the tiered engine, and install the
// saved configuration on a store that has no epoch yet. A store's
// configuration is therefore fixed when it is first opened. The caller
// owns srv.Close().
func openConfiguredServer(db string, shards int, fastBytes int64, demoteAfter int) (*server.Server, error) {
	cfg, cfgErr := core.Load(configPath(db))
	if shards == 0 && cfgErr == nil {
		shards = cfg.Runtime.Shards
	}
	srv, err := server.OpenWith(db, server.Options{
		Shards:          shards,
		FastTierBytes:   fastBytes,
		DemoteAfterDays: demoteAfter,
	})
	if err != nil {
		return nil, err
	}
	if srv.Current() == nil {
		if cfgErr != nil {
			cfgErr = fmt.Errorf("load configuration first (vstore configure): %w", cfgErr)
		} else {
			cfgErr = srv.Reconfigure(cfg)
		}
		if cfgErr != nil {
			srv.Close()
			return nil, cfgErr
		}
	}
	return srv, nil
}

// serveFlags are the flags of the two long-running verbs, serve and api:
// the store, the erosion daemon's clock and the tier knobs.
type serveFlags struct {
	db          *string
	erodeEvery  *time.Duration
	today       *int
	shards      *int
	fastBytes   *int64
	demoteAfter *int
}

func declareServeFlags(fs *flag.FlagSet) serveFlags {
	return serveFlags{
		db:          fs.String("db", "vstore-db", "store directory"),
		erodeEvery:  fs.Duration("erode-interval", 0, "erosion daemon pass interval (0 = no daemon)"),
		today:       fs.Int("today", 1, "current day index for the erosion daemon's age function"),
		shards:      fs.Int("shards", 0, "per-tier kvstore shards for fresh stores (0 = configured/default)"),
		fastBytes:   fs.Int64("fast-bytes", 0, "fast disk tier byte budget (0 = configured/unbudgeted)"),
		demoteAfter: fs.Int("demote-after", 0, "demote segments to the cold tier after this many days (0 = configured/off)"),
	}
}

// age is the lifecycle passes' clock: segment age counted from -today.
func (f serveFlags) age() server.AgeFunc {
	return server.AgeByToday(func() int { return *f.today })
}

// open opens the configured server and, with -erode-interval, starts the
// erosion daemon; srv.Close stops it.
func (f serveFlags) open() (*server.Server, error) {
	srv, err := openConfiguredServer(*f.db, *f.shards, *f.fastBytes, *f.demoteAfter)
	if err != nil {
		return nil, err
	}
	if *f.erodeEvery > 0 {
		if _, err := srv.StartErosionDaemon(*f.erodeEvery, nil, f.age()); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

func cmdConfigure(args []string) error {
	fs := flag.NewFlagSet("configure", flag.ExitOnError)
	db := fs.String("db", "vstore-db", "store directory")
	cores := fs.Float64("ingest-cores", 0, "ingest budget in CPU cores (0 = unlimited)")
	storageGB := fs.Float64("storage-gb", 0, "storage budget in GB over the lifespan (0 = unlimited)")
	lifespan := fs.Int("lifespan", 10, "video lifespan in days")
	clip := fs.Int("clip", 300, "profiling clip length in frames")
	shards := fs.Int("shards", 0, "per-tier kvstore shards for fresh stores (0 = engine default)")
	fastGB := fs.Float64("fast-gb", 0, "fast disk tier byte budget in GB (0 = unbudgeted)")
	demoteAfter := fs.Int("demote-after", 0, "demote segments to the cold tier after this many days (0 = off)")
	resultsMB := fs.Float64("results-mb", 0, "materialized-results store budget in MB (0 = disabled)")
	fs.Parse(args)
	if err := os.MkdirAll(*db, 0o755); err != nil {
		return err
	}
	env := experiments.NewEnv(*clip)
	cfg, err := core.Configure(env.StandardConsumers(), core.Options{
		StorageProfiler:    env.Profiler("jackson"),
		IngestBudgetSec:    *cores,
		StorageBudgetBytes: int64(*storageGB * 1e9),
		LifespanDays:       *lifespan,
	})
	if err != nil {
		return err
	}
	cfg.Runtime.Shards = *shards
	cfg.Runtime.FastTierBytes = int64(*fastGB * 1e9)
	cfg.Runtime.DemoteAfterDays = *demoteAfter
	cfg.Runtime.ResultsBytes = int64(*resultsMB * 1e6)
	if err := cfg.Save(configPath(*db)); err != nil {
		return err
	}
	fmt.Print(cfg.Table())
	fmt.Printf("ingest %.2f cores, storage %.1f GB/day; erosion k=%.2f\n",
		cfg.Derivation.TotalIngestSec(), cfg.Derivation.TotalBytesPerSec()*86400/1e9, cfg.Erosion.K)
	fmt.Println("configuration saved to", configPath(*db))
	return nil
}

// cmdIngest appends segments at the stream's next index, transcoded into
// the current epoch's storage formats.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	db := fs.String("db", "vstore-db", "store directory")
	scene := fs.String("scene", "jackson", "dataset to ingest")
	n := fs.Int("segments", 5, "number of 8-second segments")
	shards := fs.Int("shards", 0, "per-tier kvstore shards for fresh stores (0 = configured/default)")
	fs.Parse(args)
	sc, err := vidsim.DatasetByName(*scene)
	if err != nil {
		return err
	}
	srv, err := openConfiguredServer(*db, *shards, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	base, t0 := srv.SegmentsOf(*scene), time.Now()
	st, err := srv.Ingest(sc, *scene, *n)
	if err != nil {
		return err
	}
	fmt.Printf("ingested segments [%d,%d) (%.0fs of video) of %s into %d formats\n",
		base, base+st.Segments, st.VideoSeconds(), *scene, len(st.PerSF))
	for _, s := range st.PerSF {
		fmt.Printf("  %-40s %8.1f KB  %.3f cores\n", s.SF, float64(s.Bytes)/1024, s.CPUSeconds/st.VideoSeconds())
	}
	fmt.Printf("total: %.2f transcoding cores, %.1f KB/s stored, wall %.1fs\n",
		st.CPUSecPerVideoSec(), st.BytesPerSec()/1024, time.Since(t0).Seconds())
	return srv.Close()
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	db := fs.String("db", "vstore-db", "store directory")
	scene := fs.String("scene", "jackson", "stream to query")
	q := fs.String("query", "A", "cascade: A (Diff+S-NN+NN) or B (Motion+License+OCR)")
	acc := fs.Float64("accuracy", 0.9, "target operator accuracy")
	from := fs.Int("from", 0, "first segment")
	to := fs.Int("to", 5, "one past the last segment")
	fs.Parse(args)
	cascade, names, err := query.ByName(*q)
	if err != nil {
		return err
	}
	srv, err := openConfiguredServer(*db, 0, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	t0 := time.Now()
	res, err := srv.Query(context.Background(), *scene, cascade, names, *acc, *from, *to)
	if err != nil {
		return err
	}
	var video float64
	for _, span := range res.Results {
		video += span.VideoSeconds
	}
	fmt.Printf("query %s over %.0fs of %s at accuracy %.2f: %.0fx realtime (wall %.2fs)\n",
		cascade.Name, video, *scene, *acc, res.Speed(), time.Since(t0).Seconds())
	for _, span := range res.Results {
		for _, st := range span.StageStats {
			fmt.Printf("  %-8s consumed %5d frames  retrieval %.4fs  consumption %.4fs\n",
				st.Op, st.FramesConsumed, st.RetrievalSec, st.ConsumptionSec)
		}
	}
	fmt.Println(detectionsLine(res.Detections()))
	return srv.Close()
}

// detectionsLine is query's last line: the count, then the first eight.
func detectionsLine(dets []ops.Detection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d detections", len(dets))
	for i, d := range dets {
		if i == 8 {
			b.WriteString(" ...")
			break
		}
		fmt.Fprintf(&b, "  [t=%.1fs %s]", float64(d.PTS)/vidsim.FPS, d.Label)
	}
	return b.String()
}

// cmdErode runs one erosion pass over the stream: every epoch's plan on
// the segments it governs, expiry included.
func cmdErode(args []string) error {
	fs := flag.NewFlagSet("erode", flag.ExitOnError)
	db := fs.String("db", "vstore-db", "store directory")
	scene := fs.String("scene", "jackson", "stream to erode")
	today := fs.Int("today", 1, "current day index; segment age = today - segment's day")
	fs.Parse(args)
	srv, err := openConfiguredServer(*db, 0, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	age := server.AgeByToday(func() int { return *today })
	deleted, err := srv.Erode(*scene, func(idx int) int { return age(*scene, idx) })
	if err != nil {
		return err
	}
	fmt.Printf("eroded %d segments of %s (day %d)\n", deleted, *scene, *today)
	return srv.Close()
}

// cmdServe runs the store as a live engine: every named scene ingests
// through a streaming pipeline while concurrent queries answer over
// snapshot-isolated views and (optionally) the background erosion daemon
// ages footage out — all at once, the always-on operation of §4.1.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	sf := declareServeFlags(fs)
	streamsFlag := fs.String("streams", "jackson,park", "comma-separated scenes to ingest live")
	n := fs.Int("segments", 4, "segments to ingest per stream")
	nq := fs.Int("queries", 8, "queries to run while ingesting")
	q := fs.String("query", "A", "cascade: A (Diff+S-NN+NN) or B (Motion+License+OCR)")
	acc := fs.Float64("accuracy", 0.9, "target operator accuracy")
	fs.Parse(args)

	cascade, names, err := query.ByName(*q)
	if err != nil {
		return err
	}
	srv, err := sf.open()
	if err != nil {
		return err
	}
	defer srv.Close()

	streams := strings.Split(*streamsFlag, ",")
	var feeders sync.WaitGroup
	feedErr := make(chan error, len(streams))
	for _, name := range streams {
		sc, err := vidsim.DatasetByName(name)
		if err != nil {
			return err
		}
		live, err := srv.StartStream(name)
		if err != nil {
			return err
		}
		base := srv.SegmentsOf(name)
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			src := vidsim.NewSource(sc)
			for i := 0; i < *n; i++ {
				seg := base + i
				if err := live.Submit(src.Clip(seg*segment.Frames, segment.Frames)); err != nil {
					feedErr <- err
					return
				}
			}
		}()
	}

	// Queriers: answer while ingest is in flight, each over its own
	// snapshot of whatever is committed at entry.
	ingestDone := make(chan struct{})
	var queriers sync.WaitGroup
	var qmu sync.Mutex
	ran := 0
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for iter := 0; ; iter++ {
				stream := streams[(w+iter)%len(streams)]
				hi := srv.SegmentsOf(stream)
				if hi == 0 {
					// Nothing committed yet: wait for ingest, without
					// consuming the query quota — unless ingest already
					// finished and this stream stayed empty.
					select {
					case <-ingestDone:
						return
					case <-time.After(50 * time.Millisecond):
					}
					continue
				}
				qmu.Lock()
				if ran >= *nq {
					qmu.Unlock()
					return
				}
				ran++
				seq := ran
				qmu.Unlock()
				res, err := srv.Query(context.Background(), stream, cascade, names, *acc, 0, hi)
				if err != nil {
					fmt.Printf("  query %d on %s: %v\n", seq, stream, err)
					continue
				}
				fmt.Printf("  query %d: %s[0,%d) -> %d detections at %.0fx realtime\n",
					seq, stream, hi, len(res.Detections()), res.Speed())
			}
		}()
	}

	feeders.Wait()
	srv.DrainStreams()
	close(ingestDone)
	queriers.Wait()
	close(feedErr)
	for err := range feedErr {
		return err
	}
	for name, ls := range srv.LiveStreams() {
		fmt.Printf("stream %s: ingested %d/%d segments (%d failed)\n", name, ls.Ingested, ls.Submitted, ls.Failed)
	}
	for _, name := range streams {
		if err := srv.StopStream(name); err != nil {
			return err
		}
	}
	// One settling demotion pass before the final report: segments
	// ingested after the daemon's last tick (or with no daemon at all —
	// -demote-after/-fast-bytes work without -erode-interval) still age
	// out of the fast tier. A no-op when no demotion knob is active.
	if n, err := srv.DemotePass(sf.age()); err != nil {
		return err
	} else if n > 0 {
		fmt.Printf("settling demotion pass migrated %d replicas\n", n)
	}
	st := srv.Stats()
	fmt.Printf("served: %d queries over %d snapshots (%d erosion passes)\n", ran, st.SnapshotsTaken, st.ErosionPasses)
	printStats(st)
	return srv.Close()
}

// printStats is the store report serve ends with and stats prints: the
// counters /v1/stats serves as its store object.
func printStats(st server.Stats) {
	fmt.Printf("store: %d keys, live %.1f MB, garbage %.1f MB in %d files; cache %d/%d hit/miss, results %d/%d hit/miss\n",
		st.Keys, float64(st.LiveBytes)/1e6, float64(st.GarbageBytes)/1e6, st.Files,
		st.CacheHits, st.CacheMisses, st.ResultsHits, st.ResultsMisses)
	fmt.Printf("tiers: %d shards; fast %d segs / %.1f MB, cold %d segs / %.1f MB, %d demotions\n",
		st.Shards, st.FastSegments, float64(st.FastLiveBytes)/1e6,
		st.ColdSegments, float64(st.ColdLiveBytes)/1e6, st.Demotions)
	fmt.Printf("health: %d corrupt / %d transient reads, %d degraded serves, %d repairs (%d failed, %d pending)\n",
		st.CorruptReads, st.TransientReads, st.DegradedServes, st.Repairs, st.RepairsFailed, st.RepairPending)
}

// cmdScrub runs one self-healing pass: verify every record checksum,
// cross-check the manifest for lost replicas, and re-derive whatever is
// damaged from surviving fallback ancestors. Exit status 1 when damage
// remains unhealed, so scripts can gate on it.
func cmdScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	db := fs.String("db", "vstore-db", "store directory")
	shards := fs.Int("shards", 0, "per-tier kvstore shards for fresh stores (0 = configured/default)")
	fs.Parse(args)
	srv, err := openConfiguredServer(*db, *shards, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	rep, err := srv.ScrubPass()
	if err != nil {
		return err
	}
	fmt.Printf("scrubbed %d committed replicas: %d corrupt, %d lost, %d meta keys damaged\n",
		rep.Scanned, len(rep.Corrupt), len(rep.Lost), len(rep.Meta))
	fmt.Printf("repaired %d, skipped %d (eroded since detection), failed %d\n",
		len(rep.Repaired), len(rep.Skipped), len(rep.Failed))
	for _, r := range rep.Repaired {
		fmt.Printf("  repaired %s/%s/%d\n", r.Stream, r.SFKey, r.Idx)
	}
	for _, f := range rep.Failed {
		fmt.Printf("  FAILED   %s/%s/%d: %v\n", f.Ref.Stream, f.Ref.SFKey, f.Ref.Idx, f.Err)
	}
	if len(rep.Failed) > 0 || len(rep.Meta) > 0 {
		return fmt.Errorf("%d replicas unhealed, %d meta keys damaged", len(rep.Failed), len(rep.Meta))
	}
	return srv.Close()
}

// cmdDamage deliberately corrupts one stored replica — the operational
// fault injector TestVerbsShareTheServer heals: damage a replica, run
// `vstore scrub`, watch it heal.
func cmdDamage(args []string) error {
	fs := flag.NewFlagSet("damage", flag.ExitOnError)
	db := fs.String("db", "vstore-db", "store directory")
	stream := fs.String("stream", "", "stream whose replica to damage")
	segIdx := fs.Int("segment", 0, "segment index to damage")
	sfKey := fs.String("sf", "", "storage format key (empty = first non-golden format)")
	shards := fs.Int("shards", 0, "per-tier kvstore shards for fresh stores (0 = configured/default)")
	fs.Parse(args)
	if *stream == "" {
		return fmt.Errorf("damage: -stream is required")
	}
	srv, err := openConfiguredServer(*db, *shards, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	ref, err := srv.DamageReplica(*stream, *sfKey, *segIdx)
	if err != nil {
		return err
	}
	fmt.Printf("damaged %s/%s/%d (one bit flipped; reads now fail CRC until repaired)\n",
		ref.Stream, ref.SFKey, ref.Idx)
	return srv.Close()
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	db := fs.String("db", "vstore-db", "store directory")
	fs.Parse(args)
	srv, err := openConfiguredServer(*db, 0, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	printStats(srv.Stats())
	cfg := srv.Current()
	fmt.Printf("configuration: %d epochs; current has %d consumers, %d storage formats, erosion k=%.2f\n",
		len(srv.Epochs()), len(cfg.Derivation.Choices), len(cfg.Derivation.SFs), cfg.Erosion.K)
	return srv.Close()
}

// parseNodes parses the -nodes flag: comma-separated name=url pairs
// (bare URLs are auto-named node0, node1, ... — fine for throwaway
// clusters, but placements key on names, so production memberships
// should name their nodes explicitly).
func parseNodes(spec string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, url, ok := strings.Cut(part, "="); ok {
			nodes = append(nodes, cluster.Node{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)})
		} else {
			nodes = append(nodes, cluster.Node{Name: fmt.Sprintf("node%d", i), URL: part})
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("route: -nodes is required (name=url,name=url,...)")
	}
	return nodes, nil
}

// cmdRoute runs the stateless cluster router: no store of its own, just
// the membership, the placement hash, and the fan-out/merge machinery —
// any number of these can front the same nodes.
func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	nodesSpec := fs.String("nodes", "", "comma-separated member nodes: name=http://host:port (bare URLs auto-name)")
	listen := fs.String("listen", ":8090", "listen address")
	replicas := fs.Int("replicas", 1, "nodes serving each stream (owner + replicas-1 followers)")
	workers := fs.Int("workers", 4, "concurrent chunk executions per query")
	fs.Parse(args)
	nodes, err := parseNodes(*nodesSpec)
	if err != nil {
		return err
	}
	rt, err := cluster.NewRouter(cluster.Options{
		Nodes:    nodes,
		Replicas: *replicas,
		Workers:  *workers,
	})
	if err != nil {
		return err
	}
	return serveUntilSignal(rt, *listen, "drained", func(addr net.Addr) {
		fmt.Printf("vstore router listening on %s (%d nodes, %d replicas, %d workers)\n",
			addr, len(nodes), *replicas, *workers)
		for _, n := range nodes {
			fmt.Printf("  node %-12s %s\n", n.Name, n.URL)
		}
	})
}

// serveUntilSignal is the whole run of the api and route verbs: start
// listening, print the listen line a supervisor reads the address from,
// wait for SIGINT or SIGTERM, drain under a 30 s deadline, print the
// drained line. The signals are caught before the listen line is printed,
// so a SIGTERM sent the moment it appears still drains.
func serveUntilSignal(srv interface {
	Start(addr string) (net.Addr, error)
	Shutdown(ctx context.Context) error
}, listen, drained string, listening func(net.Addr)) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	addr, err := srv.Start(listen)
	if err != nil {
		return err
	}
	listening(addr)
	<-sig
	fmt.Println("draining: waiting for in-flight requests...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println(drained)
	return nil
}

// loadTenants builds the tenant registry for the API server: the key
// file's keys and quotas layered over the quotas persisted in the store
// configuration, with the merge persisted back so a later restart without
// -tenants still enforces the same envelopes (keyless, all traffic on the
// default tenant). Returns nil when neither source defines any tenant.
func loadTenants(db, file string) (*tenant.Registry, error) {
	cfg, cfgErr := core.Load(configPath(db))
	if file == "" {
		if cfgErr == nil && len(cfg.Runtime.Tenants) > 0 {
			fmt.Printf("tenants: %d quota envelopes from %s (keyless)\n", len(cfg.Runtime.Tenants), configPath(db))
			return tenant.NewRegistry(cfg.Runtime.Tenants, nil), nil
		}
		return nil, nil
	}
	kf, err := tenant.LoadKeyFile(file)
	if err != nil {
		return nil, err
	}
	quotas := kf.Quotas
	if cfgErr == nil {
		quotas = tenant.MergeQuotas(cfg.Runtime.Tenants, kf.Quotas)
		cfg.Runtime.Tenants = quotas
		if err := cfg.Save(configPath(db)); err != nil {
			return nil, fmt.Errorf("persist tenant quotas: %w", err)
		}
	}
	fmt.Printf("tenants: %d keys across %d tenants from %s\n", len(kf.Keys), len(quotas), file)
	return tenant.NewRegistry(quotas, kf.Keys), nil
}

// cmdAPI serves the store over HTTP — the network counterpart of serve:
// the full lifecycle (query/ingest/erode/demote/compact/stats) behind
// internal/api's admission-controlled endpoints, draining gracefully on
// SIGINT/SIGTERM.
func cmdAPI(args []string) error {
	fs := flag.NewFlagSet("api", flag.ExitOnError)
	sf := declareServeFlags(fs)
	listen := fs.String("listen", ":8080", "listen address")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently executing requests (0 = 2x GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "max requests waiting for a slot before 429 (0 = max-inflight)")
	maxSubs := fs.Int("max-subs", 0, "max concurrent standing-query subscriptions before 429 (0 = default)")
	tenantsFile := fs.String("tenants", "", "tenant key file: one \"<api-key> <tenant> [weight=W] [rate=R] ...\" per line (empty = single default tenant)")
	queryTimeout := fs.Duration("query-timeout", 0, "server-side cap per query (0 = none)")
	fs.Parse(args)

	srv, err := sf.open()
	if err != nil {
		return err
	}
	defer srv.Close()
	lim := api.Limits{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		MaxSubscriptions: *maxSubs,
		QueryTimeout:     *queryTimeout,
	}
	if reg, err := loadTenants(*sf.db, *tenantsFile); err != nil {
		return err
	} else if reg != nil {
		lim.Tenants = reg
	}
	// srv.Close (deferred) stops the daemon and live streams after the
	// HTTP surface is quiet.
	return serveUntilSignal(api.New(srv, lim), *listen, "drained; closing store", func(addr net.Addr) {
		fmt.Printf("vstore api listening on %s (db %s)\n", addr, *sf.db)
	})
}
