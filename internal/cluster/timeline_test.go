package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"execrecon/internal/fleet"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
)

// requireCompleteTimeline asserts a resolved bucket's timeline covers
// ingest through resolve and that the resolving lease window carries
// the replay subtree its leaseholder shipped under the same term, and
// returns that subtree. restart relaxes the point-event checks to the
// durable skeleton (intermediate events are not replayed from the WAL;
// the resolution shows as ResolvedAt).
func requireCompleteTimeline(t *testing.T, tl BucketTimeline, restart bool) telemetry.SpanSnapshot {
	t.Helper()
	if tl.State != "resolved" {
		t.Errorf("bucket %s/%#x: state = %s, want resolved", tl.App, tl.Key, tl.State)
	}
	if tl.FirstSeen.IsZero() || tl.ResolvedAt == nil {
		t.Errorf("bucket %s/%#x: lifecycle timestamps missing (%v, %v)",
			tl.App, tl.Key, tl.FirstSeen, unstamp(tl.ResolvedAt))
	}
	if tl.Root.Name != "bucket" || tl.Root.Open {
		t.Errorf("bucket %s/%#x: root = %q open=%v", tl.App, tl.Key, tl.Root.Name, tl.Root.Open)
	}
	var hasIngest, hasResolve bool
	var resolving *telemetry.SpanSnapshot
	leases := 0
	for _, ch := range tl.Root.Children {
		switch ch.Name {
		case "ingest":
			hasIngest = true
		case "resolve":
			hasResolve = true
		case "lease":
			leases++
			for i, r := range ch.Children {
				if r.Name == "replay" && ch.Attrs["outcome"] == "resolved" && r.Attrs["term"] == ch.Attrs["term"] {
					resolving = &ch.Children[i]
				}
			}
		}
	}
	if !hasIngest {
		t.Errorf("bucket %s/%#x: no ingest event", tl.App, tl.Key)
	}
	if !restart && !hasResolve {
		t.Errorf("bucket %s/%#x: no resolve event", tl.App, tl.Key)
	}
	if leases == 0 {
		t.Errorf("bucket %s/%#x: no lease window", tl.App, tl.Key)
	}
	if resolving == nil {
		t.Errorf("bucket %s/%#x: no replay subtree under the resolving lease window's term", tl.App, tl.Key)
		return telemetry.SpanSnapshot{}
	}
	return *resolving
}

// TestWireLeaseRenewRoundTrip drives the /v1/* envelopes by hand: a
// heartbeat must ship a span snapshot and node health that land on the
// timeline (under the lease window of the renewed term) and the node
// table, fencing must be per lease, and a heartbeat speaking the wrong
// protocol version must be rejected in the envelope.
func TestWireLeaseRenewRoundTrip(t *testing.T) {
	apps := testApps(t)[:1] // alpha
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ring := telemetry.NewEventRing(nil, nil)
	coord, err := NewCoordinator(apps, CoordinatorOptions{
		Fleet: fleet.Options{MachinesPerApp: 1, Pace: 50 * time.Microsecond, Timeout: 60 * time.Second,
			Logger: slog.New(ring)},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer coord.Crash()

	cl := NewClient(coord.URL(), "hand-node")
	var lr *LeaseResponse
	deadline := time.Now().Add(30 * time.Second)
	for {
		lr, err = cl.Lease(context.Background(), time.Second)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if lr.Granted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted")
		}
	}

	// A replay span for the granted term, shipped on a heartbeat with
	// node vitals.
	tracer := telemetry.NewTracer(0)
	replay := tracer.Start("replay", telemetry.A("node", "hand-node"), telemetry.A("term", lr.Term))
	sn := replay.Snapshot()
	held := LeaseRef{App: lr.App, Key: lr.Key, Term: lr.Term}
	stale := LeaseRef{App: lr.App, Key: lr.Key, Term: lr.Term + 1}
	rr, err := cl.Renew(context.Background(), &RenewRequest{
		Leases: []LeaseRenewal{
			{LeaseRef: held, Iterations: 1, Span: &sn},
			{LeaseRef: stale},
		},
		Health: &NodeHealth{Goroutines: 7, HeapBytes: 12345, Buckets: 1},
	})
	if err != nil || !rr.OK {
		t.Fatalf("renew: %v %+v", err, rr)
	}
	// Fencing is per lease: only the term the coordinator never granted
	// is named lost.
	if len(rr.Lost) != 1 || rr.Lost[0] != stale {
		t.Errorf("renew lost = %+v, want only %+v", rr.Lost, stale)
	}

	tl, ok := coord.TimelineOf(lr.App, lr.Key)
	if !ok {
		t.Fatal("no timeline for the leased bucket")
	}
	var found bool
	for _, ch := range tl.Root.Children {
		if ch.Name != "lease" || ch.Attrs["term"] != fmt.Sprint(lr.Term) {
			continue
		}
		for _, r := range ch.Children {
			if r.Name == "replay" && r.Attrs["node"] == "hand-node" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("heartbeat span not attached under the lease window: %+v", tl.Root)
	}
	snap := coord.Snapshot()
	var health *NodeInfo
	for i := range snap.Nodes {
		if snap.Nodes[i].Name == "hand-node" {
			health = &snap.Nodes[i]
		}
	}
	if health == nil || health.Goroutines != 7 || health.HeapBytes != 12345 || health.Buckets != 1 {
		t.Errorf("node health not surfaced: %+v", health)
	}

	// Wrong protocol version in the heartbeat envelope: HTTP 200 with
	// an envelope rejection naming the version skew.
	body, _ := json.Marshal(&RenewRequest{
		V: ProtocolVersion + 1, Node: "hand-node",
		Leases: []LeaseRenewal{{LeaseRef: held}},
	})
	resp, err := http.Post(coord.URL()+PathRenew, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version mismatch: HTTP %d, want 200 + envelope rejection", resp.StatusCode)
	}
	var rr2 RenewResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr2); err != nil {
		t.Fatal(err)
	}
	if rr2.OK || !strings.Contains(rr2.Err, "protocol version") {
		t.Errorf("version mismatch response = %+v", rr2)
	}
	// The rejection is one Warn event naming both versions.
	var skews []map[string]any
	for _, line := range ring.Recent(slog.LevelWarn, 0) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec["peer_version"] != nil {
			skews = append(skews, rec)
		}
	}
	if len(skews) != 1 || skews[0]["level"] != "WARN" || skews[0]["path"] != PathRenew ||
		skews[0]["peer_version"] != float64(ProtocolVersion+1) || skews[0]["coordinator_version"] != float64(ProtocolVersion) {
		t.Errorf("version-skew events = %v, want one Warn naming both versions", skews)
	}
}

// TestClusterTimelineStitching runs the three-app mix across two
// tracer-equipped nodes and checks every resolved bucket renders one
// stitched ingest-through-resolve timeline, with gamma's rollout leg
// on it.
func TestClusterTimelineStitching(t *testing.T) {
	apps := testApps(t)
	ring := telemetry.NewEventRing(nil, nil)
	log := slog.New(ring)
	overhead := telemetry.NewOverhead(telemetry.OverheadOptions{Logger: log})
	res, err := RunHarness(HarnessOptions{
		Apps:           apps,
		Nodes:          2,
		WorkersPerNode: 2,
		Dir:            t.TempDir(),
		MachinesPerApp: 2,
		Pace:           50 * time.Microsecond,
		Timeout:        90 * time.Second,
		Logger:         log,
		Overhead:       overhead,
		NodeTracers:    true,
	})
	if err != nil {
		t.Fatalf("RunHarness: %v", err)
	}
	checkParity(t, res.Fleet, apps)
	if len(res.Timelines) != len(apps) {
		t.Fatalf("timelines = %d, want %d", len(res.Timelines), len(apps))
	}
	for _, tl := range res.Timelines {
		requireCompleteTimeline(t, tl, false)
		if tl.App == "gamma" {
			var rollouts int
			for _, ch := range tl.Root.Children {
				if ch.Name == "rollout" {
					rollouts++
				}
			}
			if rollouts == 0 {
				t.Errorf("gamma timeline has no rollout event: %+v", tl.Root.Children)
			}
		}
	}
	// The ring saw the lifecycle, and the accountant saw production.
	if c := ring.Counts(); c[1] == 0 {
		t.Errorf("event ring saw no info events: %v", c)
	}
	var accounted uint64
	for _, row := range overhead.Snapshot() {
		accounted += row.Runs
	}
	if accounted == 0 {
		t.Error("overhead accountant saw no production runs")
	}
}

// TestClusterTimelineSurvivesRedispatch kills the leaseholder the
// moment gamma's grant is observed, lets a survivor inherit through
// TTL expiry, and requires the final timeline to carry both lease
// windows — the victim's expired one and the survivor's resolved one
// with its stitched replay tree.
func TestClusterTimelineSurvivesRedispatch(t *testing.T) {
	apps := testApps(t)[2:3] // gamma: long reconstruction window
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(apps, CoordinatorOptions{
		Fleet: fleet.Options{
			MachinesPerApp: 2,
			Pace:           50 * time.Microsecond,
			Timeout:        90 * time.Second,
		},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
		TTL:     250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	victim, err := NewNode(NodeOptions{
		Name: "victim", Coordinator: coord.URL(), Apps: apps, Workers: 1,
		Tracer: telemetry.NewTracer(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if coord.Snapshot().Granted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased the bucket")
		}
		time.Sleep(time.Millisecond)
	}
	victim.Kill()
	survivor, err := NewNode(NodeOptions{
		Name: "survivor", Coordinator: coord.URL(), Apps: apps, Workers: 1,
		Tracer: telemetry.NewTracer(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait()
	victim.Close()
	survivor.Close()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkParity(t, res, apps)

	tls := coord.Timelines()
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	tl := tls[0]
	requireCompleteTimeline(t, tl, false)
	if tl.Redispatches < 1 {
		t.Errorf("redispatches = %d, want >= 1", tl.Redispatches)
	}
	var windows, expired, resolved int
	var expireEvents int
	for _, ch := range tl.Root.Children {
		switch ch.Name {
		case "lease":
			windows++
			switch ch.Attrs["outcome"] {
			case "expired":
				expired++
			case "resolved":
				resolved++
			}
		case "expire":
			expireEvents++
		}
	}
	if windows < 2 || expired < 1 || resolved != 1 || expireEvents < 1 {
		t.Errorf("lease history: windows=%d expired=%d resolved=%d expireEvents=%d, want >=2/>=1/1/>=1\n%+v",
			windows, expired, resolved, expireEvents, tl.Root.Children)
	}
}

// TestClusterTimelineSurvivesRestart completes a traced two-node run,
// then reopens the WAL with a fresh coordinator: the recovered
// skeletons must still render ingest-through-resolve with the same
// ingest times and the resolving term's final replay spans.
func TestClusterTimelineSurvivesRestart(t *testing.T) {
	apps := testApps(t)[:2] // alpha + beta: fast, no solver leg
	dir := t.TempDir()
	res, err := RunHarness(HarnessOptions{
		Apps:           apps,
		Nodes:          2,
		Dir:            dir,
		MachinesPerApp: 2,
		Pace:           50 * time.Microsecond,
		Timeout:        90 * time.Second,
		NodeTracers:    true,
	})
	if err != nil {
		t.Fatalf("RunHarness: %v", err)
	}
	checkParity(t, res.Fleet, apps)
	type final struct {
		tl     BucketTimeline
		replay []byte
	}
	before := make(map[string]final, len(res.Timelines))
	for _, tl := range res.Timelines {
		replay, err := json.Marshal(requireCompleteTimeline(t, tl, false))
		if err != nil {
			t.Fatal(err)
		}
		before[fmt.Sprintf("%s/%#x", tl.App, tl.Key)] = final{tl, replay}
	}

	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(apps, CoordinatorOptions{
		Fleet:   fleet.Options{MachinesPerApp: 2, Timeout: time.Second},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
	})
	if err != nil {
		t.Fatalf("restart NewCoordinator: %v", err)
	}
	defer coord.Close()
	after := coord.Timelines()
	if len(after) != len(before) {
		t.Fatalf("recovered %d timelines, want %d", len(after), len(before))
	}
	for _, tl := range after {
		replay, err := json.Marshal(requireCompleteTimeline(t, tl, true))
		if err != nil {
			t.Fatal(err)
		}
		b, ok := before[fmt.Sprintf("%s/%#x", tl.App, tl.Key)]
		if !ok {
			t.Errorf("recovered unknown bucket %s/%#x", tl.App, tl.Key)
			continue
		}
		pre := b.tl
		if !tl.FirstSeen.Equal(pre.FirstSeen) {
			t.Errorf("bucket %s/%#x: ingest time changed across restart: %v -> %v",
				tl.App, tl.Key, pre.FirstSeen, tl.FirstSeen)
		}
		if !bytes.Equal(replay, b.replay) {
			t.Errorf("bucket %s/%#x: resolving replay subtree changed across restart:\n%s\n->\n%s",
				tl.App, tl.Key, b.replay, replay)
		}
		if !unstamp(tl.ResolvedAt).Equal(unstamp(pre.ResolvedAt)) {
			t.Errorf("bucket %s/%#x: resolution time changed across restart: %v -> %v",
				tl.App, tl.Key, unstamp(pre.ResolvedAt), unstamp(tl.ResolvedAt))
		}
		var recovered bool
		for _, ch := range tl.Root.Children {
			if ch.Name == "recovered" {
				recovered = true
			}
		}
		if !recovered {
			t.Errorf("bucket %s/%#x: no recovered marker on the restarted timeline", tl.App, tl.Key)
		}
	}
}

// reconstructionWaits collects the reoccurrence-wait spans nested
// directly under a reconstruction span anywhere in the tree.
func reconstructionWaits(sn telemetry.SpanSnapshot) []telemetry.SpanSnapshot {
	var out []telemetry.SpanSnapshot
	for _, c := range sn.Children {
		if sn.Name == "reconstruction" && c.Name == "reoccurrence-wait" {
			out = append(out, c)
		}
		out = append(out, reconstructionWaits(c)...)
	}
	return out
}

// TestClusterTimelineNodeWaits: a bucket parked on a node opens a
// reoccurrence-wait span under its reconstruction span. The heartbeat
// ships it while open, so the stitched timeline shows the wait, and the
// delivery that resumes the bucket closes it.
func TestClusterTimelineNodeWaits(t *testing.T) {
	var release atomic.Bool
	apps := []fleet.App{gated(testApps(t)[2], gammaBenign(), &release, true)}
	coord := startCluster(t, apps, 200*time.Millisecond, nil)
	node := startNode(t, coord, "n0", apps, telemetry.NewTracer(0))
	defer node.Close()

	waitUntil(t, "gamma to park", 30*time.Second, func() bool { return node.parkedLeases() == 1 })
	key := coord.Snapshot().Buckets[0].Key
	waitUntil(t, "an open wait on the stitched timeline", 10*time.Second, func() bool {
		tl, _ := coord.TimelineOf("gamma", key)
		w := reconstructionWaits(tl.Root)
		return len(w) > 0 && w[len(w)-1].Open
	})

	release.Store(true)
	res, err := coord.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkParity(t, res, apps)
	tls := coord.Timelines()
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	requireCompleteTimeline(t, tls[0], false)
	waits := reconstructionWaits(tls[0].Root)
	if len(waits) == 0 {
		t.Fatal("resolved timeline shows no reoccurrence wait")
	}
	for _, w := range waits {
		if w.Open {
			t.Errorf("reoccurrence-wait span still open after resolution: %+v", w)
		}
	}
}
