package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteJSONArtifact checks the BENCH_<exp>.json envelope: the file
// name, the experiment tag and a result that survives the round trip.
func TestWriteJSONArtifact(t *testing.T) {
	type row struct {
		App   string `json:"app"`
		Count int    `json:"count"`
	}
	dir := filepath.Join(t.TempDir(), "nested")
	path, err := WriteJSONArtifact(dir, "e2e", []row{{"a", 1}, {"b", 2}})
	if err != nil {
		t.Fatalf("WriteJSONArtifact: %v", err)
	}
	if path != filepath.Join(dir, "BENCH_e2e.json") {
		t.Errorf("artifact path = %s", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read artifact: %v", err)
	}
	var art struct {
		Experiment string `json:"experiment"`
		Result     []row  `json:"result"`
	}
	if err := json.Unmarshal(b, &art); err != nil {
		t.Fatalf("artifact JSON: %v\n%s", err, b)
	}
	if art.Experiment != "e2e" || len(art.Result) != 2 || art.Result[1] != (row{"b", 2}) {
		t.Errorf("artifact round-trip lost data: %+v", art)
	}
}
