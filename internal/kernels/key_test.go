package kernels_test

import (
	"math"
	"strings"
	"testing"

	"neusight/internal/baselines"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
)

// inputs is everything about a kernel a forecast can read, with the fused
// chain cut to the prefix a Key packs. Two kernels must share a Key
// exactly when their inputs are equal.
type inputs struct {
	op                 kernels.Op
	b, m, k, n         int
	dtype              kernels.DType
	fused              bool
	flops, bytes, conv uint64
	chain              int
	prefix             [kernels.PackedFusedOps]kernels.Op
}

func inputsOf(k kernels.Kernel) inputs {
	in := inputs{op: k.Op, b: k.B, m: k.M, k: k.K, n: k.N, dtype: k.DType, conv: math.Float64bits(k.ConvInputElems)}
	if k.Fused {
		in.fused = true
		in.flops, in.bytes = math.Float64bits(k.FusedFLOPs), math.Float64bits(k.FusedBytes)
		in.chain = len(k.FusedOps)
		copy(in.prefix[:], k.FusedOps)
	}
	return in
}

// cost is what the forecast of a kernel is made of.
type cost struct{ flops, bytes, roofline uint64 }

func costOf(t *testing.T, k kernels.Kernel) cost {
	t.Helper()
	r, err := baselines.Roofline{}.PredictKernel(k, gpu.MustLookup("H100"))
	if err != nil {
		t.Fatalf("roofline %s: %v", k.Label(), err)
	}
	return cost{math.Float64bits(k.FLOPs()), math.Float64bits(k.MemBytes()), math.Float64bits(r)}
}

// modelKernels returns every kernel of every Table 5 model and ResNet-50,
// inference and training, fused and unfused, at batch sizes 1 to 64.
func modelKernels() []kernels.Kernel {
	builders := []func(int) *graph.Graph{models.ResNet50InferenceGraph, models.ResNet50TrainingGraph}
	for _, m := range models.Table5() {
		builders = append(builders, m.InferenceGraph, m.TrainingGraph)
	}
	var out []kernels.Kernel
	for _, build := range builders {
		for batch := 1; batch <= 64; batch++ {
			gr := build(batch)
			for _, g := range []*graph.Graph{gr, graph.Fuse(gr)} {
				out = append(out, g.Kernels()...)
			}
		}
	}
	return out
}

// TestKeyIsExactOverModelGraphs checks the key against every kernel the
// model zoo builds: equal keys have bit-equal FLOPs, MemBytes and roofline
// forecasts, and keys are equal exactly when the forecast inputs are.
// Equal cost alone does not merge keys — a BMM and its transpose cost the
// same but tile differently — while equal labels do not either: the label
// drops the input size of a convolution.
func TestKeyIsExactOverModelGraphs(t *testing.T) {
	type seen struct {
		k kernels.Kernel
		c cost
	}
	byKey := map[kernels.Key]seen{}
	keyOf := map[inputs]kernels.Key{}
	byLabel := map[string]map[kernels.Key]cost{}
	for _, k := range modelKernels() {
		key, c := k.Key(), costOf(t, k)
		if prev, ok := byKey[key]; ok {
			if prev.c != c {
				t.Fatalf("%s and %s share a key but cost differently", prev.k.Label(), k.Label())
			}
			if inputsOf(prev.k) != inputsOf(k) {
				t.Fatalf("%+v and %+v share a key but differ in a forecast input", prev.k, k)
			}
			continue
		}
		byKey[key] = seen{k, c}
		in := inputsOf(k)
		if other, ok := keyOf[in]; ok && other != key {
			t.Fatalf("%+v: equal forecast inputs under two keys", k)
		}
		keyOf[in] = key
		if byLabel[k.Label()] == nil {
			byLabel[k.Label()] = map[kernels.Key]cost{}
		}
		byLabel[k.Label()][key] = c
	}
	merged := 0
	for label, costs := range byLabel {
		distinct := map[cost]bool{}
		for _, c := range costs {
			if distinct[c] {
				t.Errorf("label %s: two keys with one cost", label)
			}
			distinct[c] = true
		}
		merged += len(costs) - 1
	}
	if merged == 0 {
		t.Error("no label collisions in the model zoo: the conv twins are gone")
	}
	t.Logf("%d distinct keys; labels merge %d of them", len(byKey), merged)
}

func TestKeySeparatesEveryForecastInput(t *testing.T) {
	base := kernels.Kernel{Op: kernels.OpLinear, B: 1, M: 64, K: 128, N: 256, Fused: true,
		FusedFLOPs: 1e6, FusedBytes: 2e5, FusedOps: []kernels.Op{kernels.OpEWGELU, kernels.OpEWAdd}}
	mutations := map[string]func(k *kernels.Kernel){
		"op":          func(k *kernels.Kernel) { k.Op = kernels.OpBMM },
		"b":           func(k *kernels.Kernel) { k.B = 2 },
		"m":           func(k *kernels.Kernel) { k.M = 65 },
		"k":           func(k *kernels.Kernel) { k.K = 129 },
		"n":           func(k *kernels.Kernel) { k.N = 257 },
		"dtype":       func(k *kernels.Kernel) { k.DType = kernels.FP16 },
		"fused":       func(k *kernels.Kernel) { k.Fused = false },
		"fused flops": func(k *kernels.Kernel) { k.FusedFLOPs = math.Nextafter(1e6, 2e6) },
		"fused bytes": func(k *kernels.Kernel) { k.FusedBytes = 2e5 + 1 },
		"conv input":  func(k *kernels.Kernel) { k.ConvInputElems = 1 },
		"first op":    func(k *kernels.Kernel) { k.FusedOps = []kernels.Op{kernels.OpEWTanh, kernels.OpEWAdd} },
		"last op":     func(k *kernels.Kernel) { k.FusedOps = []kernels.Op{kernels.OpEWGELU, kernels.OpEWMul} },
		"op order":    func(k *kernels.Kernel) { k.FusedOps = []kernels.Op{kernels.OpEWAdd, kernels.OpEWGELU} },
		"chain":       func(k *kernels.Kernel) { k.FusedOps = []kernels.Op{kernels.OpEWGELU, kernels.OpEWAdd, kernels.OpBMM} },
	}
	for name, mutate := range mutations {
		k := base
		mutate(&k)
		if k.Key() == base.Key() {
			t.Errorf("changing the %s leaves the key unchanged", name)
		}
	}
	// An unfused kernel's forecast ignores the fusion fields, and so does
	// its key.
	plain := kernels.NewLinear(64, 128, 256)
	stray := plain
	stray.FusedFLOPs, stray.FusedBytes, stray.FusedOps = 1, 2, []kernels.Op{kernels.OpEWAdd}
	if plain.Key() != stray.Key() || costOf(t, plain) != costOf(t, stray) {
		t.Error("fusion fields of an unfused kernel split its key")
	}
}

func TestKeyPacksEveryOperator(t *testing.T) {
	seen := map[kernels.Key]kernels.Op{}
	for op := kernels.Op(0); !strings.HasPrefix(op.String(), "op("); op++ {
		for pos := 0; pos < kernels.PackedFusedOps; pos++ {
			chain := make([]kernels.Op, kernels.PackedFusedOps)
			chain[pos] = op
			k := kernels.Kernel{Op: kernels.OpEWAdd, B: 1, M: 8, Fused: true, FusedFLOPs: 8, FusedBytes: 64, FusedOps: chain}
			if other, ok := seen[k.Key()]; ok && (op != 0 || other != 0) {
				t.Fatalf("%s and %s at fused position %d share a key", op, other, pos)
			}
			seen[k.Key()] = op
		}
	}
}

// TestKeyFusedChains covers chains the fusion pass never builds: chains
// that differ only in op order, and chains longer than the packed prefix.
func TestKeyFusedChains(t *testing.T) {
	head := kernels.NewLinear(512, 1024, 1024)
	gelu := kernels.NewElementwise(kernels.OpEWGELU, 512, 1024)
	add := kernels.NewElementwise(kernels.OpEWAdd, 512, 1024)
	mul := kernels.NewElementwise(kernels.OpEWMul, 512, 1024)

	// Reordered epilogues cost the same but are different kernels.
	ab, ba := kernels.Fuse(head, gelu, add), kernels.Fuse(head, add, gelu)
	if costOf(t, ab) != costOf(t, ba) {
		t.Fatal("reordered chains should cost the same")
	}
	if ab.Key() == ba.Key() {
		t.Error("chains that differ in op order share a key")
	}

	// Past the packed prefix only the chain length and the exact fused
	// totals are keyed: a tail op of equal cost shares the key — and with
	// it every forecast input — while one of a different cost does not.
	long := func(tail kernels.Kernel) kernels.Kernel {
		rest := make([]kernels.Kernel, 0, kernels.PackedFusedOps+1)
		for i := 0; i < kernels.PackedFusedOps; i++ {
			rest = append(rest, gelu)
		}
		return kernels.Fuse(head, append(rest, tail)...)
	}
	withAdd, withMul, withGELU := long(add), long(mul), long(gelu)
	if withAdd.Key() != withMul.Key() {
		t.Error("tail ops past the packed prefix with equal cost should share a key")
	}
	if costOf(t, withAdd) != costOf(t, withMul) || inputsOf(withAdd) != inputsOf(withMul) {
		t.Error("chains sharing a key must share every forecast input")
	}
	if withAdd.Key() == withGELU.Key() {
		t.Error("tail ops past the packed prefix with different cost share a key")
	}
}
