package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"testing/slogtest"
)

// records decodes the ring's kept records at or above min.
func records(t *testing.T, ring *EventRing, min slog.Level) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range ring.Recent(min, 0) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("ring line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestEventRingSlogtest(t *testing.T) {
	var ring *EventRing
	slogtest.Run(t, func(*testing.T) slog.Handler {
		ring = NewEventRing(nil, nil)
		return ring
	}, func(t *testing.T) map[string]any {
		recs := records(t, ring, slog.LevelDebug)
		if len(recs) != 1 {
			t.Fatalf("ring kept %d records, want 1", len(recs))
		}
		return recs[0]
	})
}

func TestJournalLevelFilterAndCounts(t *testing.T) {
	ring := NewEventRing(slog.LevelWarn, nil)
	log := slog.New(ring).With("component", "c")
	log.Debug("dropped")
	log.Info("dropped too")
	log.Warn("kept", "k", "v")
	log.Error("kept too")
	if c := ring.Counts(); c != [4]uint64{0, 0, 1, 1} {
		t.Errorf("Counts = %v, want [0 0 1 1]", c)
	}
	recs := records(t, ring, slog.LevelDebug)
	if len(recs) != 2 {
		t.Fatalf("Recent = %d records, want 2: %v", len(recs), recs)
	}
	if recs[0]["msg"] != "kept" || recs[0]["k"] != "v" || recs[0]["level"] != "WARN" ||
		recs[0]["component"] != "c" || recs[1]["msg"] != "kept too" {
		t.Errorf("Recent order/content wrong: %v", recs)
	}
	if got := len(ring.Recent(slog.LevelError, 0)); got != 1 {
		t.Errorf("Recent(error) = %d records, want 1", got)
	}
	if log.Enabled(context.Background(), slog.LevelInfo) || !log.Enabled(context.Background(), slog.LevelWarn) {
		t.Error("Enabled disagrees with the ring's threshold")
	}
}

func TestJournalRingBound(t *testing.T) {
	ring := NewEventRing(nil, nil)
	log := slog.New(ring)
	for i := 0; i < 3*ringEvents; i++ {
		log.Info(fmt.Sprintf("ev-%d", i))
	}
	recs := records(t, ring, slog.LevelDebug)
	if len(recs) != ringEvents {
		t.Fatalf("kept %d records, want %d", len(recs), ringEvents)
	}
	if first, last := recs[0]["msg"], recs[len(recs)-1]["msg"]; first != fmt.Sprintf("ev-%d", 2*ringEvents) ||
		last != fmt.Sprintf("ev-%d", 3*ringEvents-1) {
		t.Errorf("kept %v .. %v, want the newest %d", first, last, ringEvents)
	}
	if got := ring.Recent(slog.LevelDebug, 4); len(got) != 4 || !bytes.Contains(got[3], []byte(recs[len(recs)-1]["msg"].(string))) {
		t.Errorf("Recent(n=4) = %q", got)
	}
	if c := ring.Counts(); c[1] != 3*ringEvents {
		t.Errorf("lifetime info count = %d, want %d", c[1], 3*ringEvents)
	}
}

// TestJournalNilReceiver: a component given no logger logs nothing,
// and an endpoint without a ring serves an empty drain.
func TestJournalNilReceiver(t *testing.T) {
	log := OrDiscard(nil)
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Error("discarding logger reports Enabled")
	}
	log.With("k", "v").WithGroup("g").Error("msg", "k", "v")
	if RingOf(nil) != nil || RingOf(log) != nil {
		t.Error("RingOf found a ring behind a logger without one")
	}
	if TextLogger(nil) != nil {
		t.Error("TextLogger(nil) is not nil")
	}
	ring := NewEventRing(nil, nil)
	if RingOf(slog.New(ring).With("component", "c")) == nil {
		t.Error("RingOf lost the ring behind With")
	}
}

// TestJournalTeeJSONL: a JSON next handler (erd -log-json) writes the
// same lines the ring keeps.
func TestJournalTeeJSONL(t *testing.T) {
	var buf bytes.Buffer
	ring := NewEventRing(nil, slog.NewJSONHandler(&buf, nil))
	log := slog.New(ring).With("component", "sweeper")
	log.Warn("lease expired", "term", 3, "node", "n1")
	log.WithGroup("g").Info("bucket ingested", "app", "a")
	lines := strings.SplitAfter(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("next handler wrote %d lines, want 2: %q", len(lines), buf.String())
	}
	recs := records(t, ring, slog.LevelDebug)
	if recs[0]["component"] != "sweeper" || recs[0]["term"] != 3.0 || recs[0]["level"] != "WARN" {
		t.Errorf("first record = %v", recs[0])
	}
	if g, _ := recs[1]["g"].(map[string]any); g["app"] != "a" {
		t.Errorf("grouped record = %v", recs[1])
	}
	var drain bytes.Buffer
	for _, line := range ring.Recent(slog.LevelDebug, 0) {
		drain.Write(line)
	}
	// Times are rendered separately by each handler; compare the rest.
	strip := func(s string) string {
		var out []string
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			out = append(out, l[strings.Index(l, `"level"`):])
		}
		return strings.Join(out, "\n")
	}
	if strip(drain.String()) != strip(buf.String()) {
		t.Errorf("ring drain differs from the next handler:\n%s\n%s", drain.String(), buf.String())
	}
}

func TestJournalRegisterMetrics(t *testing.T) {
	reg := New()
	ring := NewEventRing(slog.LevelDebug, nil)
	ring.RegisterMetrics(reg)
	log := slog.New(ring)
	log.Error("boom")
	log.Error("boom again")
	log.Info("fine")
	fam, ok := reg.Family("er_journal_events_total")
	if !ok {
		t.Fatal("er_journal_events_total not registered")
	}
	got := map[string]float64{}
	for _, s := range fam.Series {
		for _, l := range s.Labels {
			if l.Name == "level" {
				got[l.Value] = s.Value
			}
		}
	}
	want := map[string]float64{"debug": 0, "info": 1, "warn": 0, "error": 2}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("er_journal_events_total = %v, want %v", got, want)
	}
}

// TestJournalConcurrencyHammer drives concurrent producers across all
// levels against concurrent readers — the -race test of the ring.
func TestJournalConcurrencyHammer(t *testing.T) {
	ring := NewEventRing(slog.LevelInfo, nil)
	const producers = 8
	const perProducer = 500
	levels := []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ring.Recent(slog.LevelDebug, 0)
				ring.Counts()
			}
		}()
	}
	for p := 0; p < producers; p++ {
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			log := slog.New(ring).With("p", p)
			for i := 0; i < perProducer; i++ {
				log.Log(context.Background(), levels[i%4], "event", "i", i)
			}
		}(p)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	counts := ring.Counts()
	if counts[0] != 0 {
		t.Errorf("debug records kept under an info threshold: %d", counts[0])
	}
	// 3 of 4 levels pass the threshold.
	want := uint64(producers * perProducer * 3 / 4)
	if total := counts[1] + counts[2] + counts[3]; total != want {
		t.Errorf("kept %d records, want %d", total, want)
	}
	if got := len(ring.Recent(slog.LevelDebug, 0)); got != ringEvents {
		t.Errorf("ring holds %d records, want %d", got, ringEvents)
	}
}
