package fleet

import (
	"sync"
	"testing"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/pt"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// fakeDispatcher simulates the coordinator side of the RemoteTriage
// seam: each new bucket gets its own "node" goroutine that replays the
// banked occurrences from the archive through a private pipeline and
// reports back through ResolveBucket — the minimal in-process stand-in
// for a cluster triage node.
type fakeDispatcher struct {
	t     *testing.T
	store *tracestore.Store
	apps  map[string]App

	mu     sync.Mutex
	fleet  *Fleet
	news   map[*Bucket]int
	notify map[*Bucket]chan uint64
	wg     sync.WaitGroup
}

func (d *fakeDispatcher) NewBucket(b *Bucket) {
	d.mu.Lock()
	d.news[b]++
	ch := make(chan uint64, 256)
	d.notify[b] = ch
	f := d.fleet
	d.mu.Unlock()
	d.wg.Add(1)
	go d.nodeRun(f, b, ch)
}

func (d *fakeDispatcher) Banked(b *Bucket, seq uint64) {
	d.mu.Lock()
	ch := d.notify[b]
	d.mu.Unlock()
	select {
	case ch <- seq:
	default: // node backlogged; it can re-read the archive anyway
	}
}

func (d *fakeDispatcher) nodeRun(f *Fleet, b *Bucket, ch chan uint64) {
	defer d.wg.Done()
	app := d.apps[b.App]
	p, err := core.NewPipeline(core.Config{
		Module: app.Module,
		Entry:  app.Entry,
		Symex:  app.Symex,
	})
	if err != nil {
		d.t.Errorf("node pipeline for %s: %v", b.App, err)
		return
	}
	key := tracestore.KeyOf(b.Sig)
	for !p.Done() {
		seq, ok := <-ch
		if !ok {
			return
		}
		data, info, err := d.store.ReadRaw(key, seq)
		if err != nil {
			d.t.Errorf("node read %s seq %d: %v", b.App, seq, err)
			return
		}
		if info.Meta.App != b.App || info.Meta.Version != p.Version() {
			continue
		}
		occ := &core.Occurrence{
			Result: &vm.Result{
				Failure: b.Sig,
				Stats:   vm.Stats{Instrs: info.Meta.Instrs},
			},
			Seed: info.Meta.Seed,
		}
		if len(data) > 0 {
			tr, err := pt.DecodeBytes(data, info.Meta.Lost)
			if err != nil {
				d.t.Errorf("node decode %s seq %d: %v", b.App, seq, err)
				return
			}
			occ.Trace = tr
		}
		if _, err := p.Feed(occ); err != nil {
			d.t.Errorf("node feed %s: %v", b.App, err)
			return
		}
	}
	if !f.ResolveBucket(b, p.Report()) {
		d.t.Errorf("bucket %d (%s): first ResolveBucket returned false", b.ID, b.App)
	}
	if f.ResolveBucket(b, p.Report()) {
		d.t.Errorf("bucket %d (%s): duplicate ResolveBucket not rejected", b.ID, b.App)
	}
}

// TestFleetRemoteMode drives the fleet in remote-node mode end to end
// with a fake dispatcher: no in-process workers run, every occurrence
// is banked in the archive (the delivery path), per-bucket node
// goroutines replay them, and ResolveBucket is the single —
// idempotent — resolution edge.
func TestFleetRemoteMode(t *testing.T) {
	st, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Alpha and beta only: single-iteration reconstructions that never
	// roll out an instrumented deployment — the rollout leg of the seam
	// is covered by the cluster tests.
	apps := testApps(t)[:2]
	byName := make(map[string]App, len(apps))
	for _, a := range apps {
		byName[a.Name] = a
	}
	d := &fakeDispatcher{
		t:      t,
		store:  st,
		apps:   byName,
		news:   make(map[*Bucket]int),
		notify: make(map[*Bucket]chan uint64),
	}
	f, err := New(apps, Options{
		Remote:         d,
		Store:          st,
		MachinesPerApp: 2,
		Timeout:        time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.fleet = f
	d.mu.Unlock()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	d.wg.Wait()

	if len(res.Buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(res.Buckets))
	}
	for _, br := range res.Buckets {
		if br.Report == nil || !br.Report.Reproduced {
			t.Errorf("bucket %s: not reproduced remotely (report %+v)", br.App, br.Report)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.news) != 2 {
		t.Fatalf("NewBucket buckets = %d, want 2", len(d.news))
	}
	for b, n := range d.news {
		if n != 1 {
			t.Errorf("bucket %s: NewBucket called %d times, want 1", b.App, n)
		}
		key := tracestore.KeyOf(b.Sig)
		if st.Count(key) == 0 {
			t.Errorf("bucket %s: no banked records in the archive", b.App)
		}
	}
}

// TestFleetRemoteRequiresStore pins the invariant that remote-node
// mode refuses to run without the durable delivery path.
func TestFleetRemoteRequiresStore(t *testing.T) {
	d := &fakeDispatcher{}
	if _, err := New(testApps(t)[:1], Options{Remote: d}); err == nil {
		t.Fatal("New accepted Remote without Store")
	}
}
