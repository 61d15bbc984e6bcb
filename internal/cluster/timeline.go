package cluster

import (
	"fmt"
	"sort"
	"time"

	"execrecon/internal/telemetry"
)

// Per-bucket timeline assembly. A bucket's life crosses two
// processes — coordinator ingest/archive/lease on one side, node
// replay/solve on the other — and this file stitches both halves
// into a single span tree per bucket: a synthetic "bucket" root
// (start = ingest) carrying point events (ingest, archive, rollout,
// resolve, recovered) and one "lease" child per grant window, under
// which the remote replay subtree the leaseholder shipped back
// (heartbeat: latest open snapshot; resolve: final tree) is
// attached by term. The skeleton is durable: grants persist the
// ingest time, resolutions persist the final remote span, so
// timelines survive lease expiry, re-dispatch, and coordinator WAL
// restart.

const (
	// maxTimelineEvents bounds a bucket's point-event list; overflow
	// is counted and surfaced as a root attribute rather than
	// silently dropped.
	maxTimelineEvents = 48
	// maxLeaseWindows bounds the per-bucket lease history (each
	// re-dispatch opens a new window).
	maxLeaseWindows = 16
	// maxRemoteSpans bounds how many per-term remote replay snapshots
	// a bucket retains (the newest terms win).
	maxRemoteSpans = 8
)

// tlEvent is one point event on a bucket timeline.
type tlEvent struct {
	at    time.Time
	name  string
	attrs []telemetry.Attr
}

// leaseWindow is one grant's [start, end) on the timeline. reason is
// empty while the lease is live, then "resolved" or "expired".
type leaseWindow struct {
	term   uint64
	node   string
	start  time.Time
	end    time.Time
	reason string
}

// eventLocked appends a point event (bounded). Callers hold
// Coordinator.mu.
func (ctl *bucketCtl) eventLocked(at time.Time, name string, attrs ...telemetry.Attr) {
	if len(ctl.events) >= maxTimelineEvents {
		ctl.evDropped++
		return
	}
	ctl.events = append(ctl.events, tlEvent{at: at, name: name, attrs: attrs})
}

// openLeaseLocked starts a lease window at grant time.
func (ctl *bucketCtl) openLeaseLocked(term uint64, node string, at time.Time) {
	if len(ctl.leaseLog) >= maxLeaseWindows {
		// Keep the newest windows: drop the oldest closed one.
		copy(ctl.leaseLog, ctl.leaseLog[1:])
		ctl.leaseLog = ctl.leaseLog[:len(ctl.leaseLog)-1]
	}
	ctl.leaseLog = append(ctl.leaseLog, leaseWindow{term: term, node: node, start: at})
}

// closeLeaseLocked ends the window for term with the given reason.
func (ctl *bucketCtl) closeLeaseLocked(term uint64, reason string, at time.Time) {
	for i := len(ctl.leaseLog) - 1; i >= 0; i-- {
		if ctl.leaseLog[i].term == term {
			if ctl.leaseLog[i].reason == "" {
				ctl.leaseLog[i].end = at
				ctl.leaseLog[i].reason = reason
			}
			return
		}
	}
}

// remoteSpanLocked stores the newest replay snapshot for term
// (heartbeats replace; the resolve-time final tree replaces last).
func (ctl *bucketCtl) remoteSpanLocked(term uint64, sn telemetry.SpanSnapshot) {
	if ctl.remote == nil {
		ctl.remote = make(map[uint64]telemetry.SpanSnapshot)
	}
	if _, ok := ctl.remote[term]; !ok && len(ctl.remote) >= maxRemoteSpans {
		oldest := uint64(0)
		for t := range ctl.remote {
			if oldest == 0 || t < oldest {
				oldest = t
			}
		}
		delete(ctl.remote, oldest)
	}
	ctl.remote[term] = sn
}

// BucketTimeline is one bucket's stitched end-to-end story, as served
// by /debug/er/timeline and `er -coordinator timeline`.
type BucketTimeline struct {
	App          string     `json:"app"`
	Key          uint64     `json:"key"`
	State        string     `json:"state"`
	FirstSeen    time.Time  `json:"first_seen"`
	ResolvedAt   *time.Time `json:"resolved_at,omitempty"`
	Redispatches int        `json:"redispatches"`
	// Root is the stitched span tree: ingest → archive → lease →
	// (remote) replay/reconstruction/iterations → rollouts → resolve.
	Root telemetry.SpanSnapshot `json:"root"`
}

// timelineLocked renders the ctl's current timeline. Callers hold
// Coordinator.mu.
func (ctl *bucketCtl) timelineLocked(now time.Time) BucketTimeline {
	tl := BucketTimeline{
		App:          ctl.addr.App,
		Key:          ctl.addr.Key,
		State:        ctl.state.String(),
		FirstSeen:    ctl.firstSeen,
		ResolvedAt:   stamp(ctl.resolvedAt),
		Redispatches: ctl.redispatches,
	}
	root := telemetry.SpanSnapshot{
		Name:  "bucket",
		Start: ctl.firstSeen,
		Attrs: map[string]string{
			"app":   ctl.addr.App,
			"key":   hexKey(ctl.addr.Key),
			"state": ctl.state.String(),
		},
	}
	if ctl.sig != nil {
		root.Attrs["sig"] = ctl.sig.Error()
	}
	if ctl.evDropped > 0 {
		root.Attrs["events_dropped"] = fmt.Sprintf("%d", ctl.evDropped)
	}
	if ctl.b != nil {
		root.Attrs["occurrences"] = fmt.Sprintf("%d", ctl.b.Occurrences())
	}
	end := ctl.resolvedAt
	if ctl.state != ctlResolved || end.IsZero() {
		root.Open = true
		end = now
	}
	if !ctl.firstSeen.IsZero() && end.After(ctl.firstSeen) {
		root.Duration = end.Sub(ctl.firstSeen)
	}
	for _, ev := range ctl.events {
		sn := telemetry.SpanSnapshot{Name: ev.name, Start: ev.at}
		if len(ev.attrs) > 0 {
			sn.Attrs = make(map[string]string, len(ev.attrs))
			for _, a := range ev.attrs {
				sn.Attrs[a.Key] = a.Value
			}
		}
		root.Children = append(root.Children, sn)
	}
	for _, lw := range ctl.leaseLog {
		sn := telemetry.SpanSnapshot{
			Name:  "lease",
			Start: lw.start,
			Attrs: map[string]string{
				"term": fmt.Sprintf("%d", lw.term),
				"node": lw.node,
			},
		}
		if lw.reason != "" {
			sn.Attrs["outcome"] = lw.reason
			if lw.end.After(lw.start) {
				sn.Duration = lw.end.Sub(lw.start)
			}
		} else {
			sn.Open = true
			if now.After(lw.start) {
				sn.Duration = now.Sub(lw.start)
			}
		}
		if remote, ok := ctl.remote[lw.term]; ok {
			sn.Children = append(sn.Children, remote)
		}
		root.Children = append(root.Children, sn)
	}
	sort.SliceStable(root.Children, func(i, j int) bool {
		return root.Children[i].Start.Before(root.Children[j].Start)
	})
	tl.Root = root
	return tl
}

// TimelineOf returns one bucket's stitched timeline.
func (c *Coordinator) TimelineOf(app string, key uint64) (BucketTimeline, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctl := c.ctls[bucketAddr{app, key}]
	if ctl == nil {
		return BucketTimeline{}, false
	}
	return ctl.timelineLocked(time.Now()), true
}

// Timelines returns every bucket's stitched timeline, sorted by
// (app, key) — the /debug/er/timeline body.
func (c *Coordinator) Timelines() []BucketTimeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]BucketTimeline, 0, len(c.ctls))
	for _, ctl := range c.ctls {
		out = append(out, ctl.timelineLocked(now))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Key < out[j].Key
	})
	return out
}
