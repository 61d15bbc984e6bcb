package prod_test

import (
	"testing"

	"execrecon/internal/minc"
	"execrecon/internal/prod"
	"execrecon/internal/vm"
)

const perfProg = `
func main() int {
	int n = input32("n");
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) {
		acc = acc + input32("data") % 97;
	}
	output(acc);
	return 0;
}`

func workload(i int) (*vm.Workload, int64) {
	w := vm.NewWorkload().Add("n", 200)
	for k := 0; k < 200; k++ {
		w.Add("data", uint64(k*7+i))
	}
	return w, int64(i) + 1
}

func TestMeasureER(t *testing.T) {
	mod, err := minc.Compile("t", perfProg)
	if err != nil {
		t.Fatal(err)
	}
	r := prod.NewRunner()
	r.Runs = 4
	sum := r.MeasureER(mod, nil, workload)
	if len(sum.Samples) != 4 {
		t.Fatalf("samples: %d", len(sum.Samples))
	}
	if sum.MeanPct <= 0 || sum.MeanPct > 10 {
		t.Errorf("ER overhead %.2f%% outside the production-plausible band", sum.MeanPct)
	}
	for _, s := range sum.Samples {
		if s.TraceBytes == 0 || s.BaseCycles == 0 {
			t.Errorf("sample not populated: %+v", s)
		}
	}
}

func TestMeasureRRExceedsER(t *testing.T) {
	mod, err := minc.Compile("t", perfProg)
	if err != nil {
		t.Fatal(err)
	}
	r := prod.NewRunner()
	r.Runs = 4
	er := r.MeasureER(mod, nil, workload)
	rr := r.MeasureRR(mod, workload)
	if rr.MeanPct <= er.MeanPct {
		t.Errorf("rr (%.2f%%) should exceed ER (%.2f%%)", rr.MeanPct, er.MeanPct)
	}
	if rr.MeanPct < 5 {
		t.Errorf("rr overhead implausibly low: %.2f%%", rr.MeanPct)
	}
}

func TestBufferSizeInsensitivity(t *testing.T) {
	// §5.3: recording overhead does not depend on ring capacity.
	mod, err := minc.Compile("t", perfProg)
	if err != nil {
		t.Fatal(err)
	}
	r := prod.NewRunner()
	r.Runs = 2
	out := r.SensitivityBufferSizes(mod, nil, workload, []int{4 << 10, 1 << 20, 16 << 20})
	if len(out) != 3 {
		t.Fatalf("got %d results for 3 sizes: %v", len(out), out)
	}
	var first float64
	i := 0
	for _, v := range out {
		if i == 0 {
			first = v
		} else if v != first {
			t.Errorf("overhead varies with buffer size: %v", out)
		}
		i++
	}
}

func TestMultithreadedSerializationPenalty(t *testing.T) {
	mt := `
func worker(int n) {
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
	output(acc);
}
func main() int {
	long t1 = spawn worker(3000);
	long t2 = spawn worker(3000);
	join(t1);
	join(t2);
	return 0;
}`
	mod, err := minc.Compile("t", mt)
	if err != nil {
		t.Fatal(err)
	}
	r := prod.NewRunner()
	r.Runs = 2
	w := func(i int) (*vm.Workload, int64) { return vm.NewWorkload(), int64(i) }
	rr := r.MeasureRR(mod, w)
	// Two extra threads at the serialization factor dominate: the
	// penalty must be roughly serial*2*100%.
	want := r.Model.RRSerialFactor * 2 * 100
	if rr.MeanPct < want*0.8 {
		t.Errorf("MT rr overhead %.1f%%, want >= %.1f%%", rr.MeanPct, want*0.8)
	}
}
