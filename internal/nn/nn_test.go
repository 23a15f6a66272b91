package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"melissa/internal/tensor"
)

func randBatch(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestDenseForwardShapeAndBias(t *testing.T) {
	init := NewInitializer(1)
	d := NewDense("l", 3, 2, init)
	// Zero the weights, set the bias, and confirm broadcast.
	d.Params()[0].Value.Zero()
	copy(d.Params()[1].Value.Data, []float32{1, -2})
	x := randBatch(rand.New(rand.NewPCG(1, 1)), 4, 3)
	y := d.Forward(x)
	if y.Rows != 4 || y.Cols != 2 {
		t.Fatalf("output shape %dx%d", y.Rows, y.Cols)
	}
	for r := 0; r < 4; r++ {
		if y.At(r, 0) != 1 || y.At(r, 1) != -2 {
			t.Fatalf("bias broadcast wrong: row %d = %v", r, y.Row(r))
		}
	}
}

func TestDenseForwardMatchesManual(t *testing.T) {
	init := NewInitializer(2)
	d := NewDense("l", 2, 2, init)
	w := d.Params()[0].Value
	copy(w.Data, []float32{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.Params()[1].Value.Data, []float32{10, 20})
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	y := d.Forward(x)
	// y = [1+3+10, 2+4+20] = [14, 26]
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("got %v", y.Row(0))
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice(1, 4, []float32{-1, 0, 2, -3})
	y := r.Forward(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("forward got %v", y.Data)
		}
	}
	dy := tensor.FromSlice(1, 4, []float32{5, 6, 7, 8})
	dx := r.Backward(dy)
	wantDx := []float32{0, 0, 7, 0}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("backward got %v", dx.Data)
		}
	}
}

func TestTanhForwardBackward(t *testing.T) {
	l := NewTanh()
	x := tensor.FromSlice(1, 2, []float32{0, 1})
	y := l.Forward(x)
	if y.Data[0] != 0 {
		t.Fatalf("tanh(0) = %v", y.Data[0])
	}
	if math.Abs(float64(y.Data[1])-math.Tanh(1)) > 1e-6 {
		t.Fatalf("tanh(1) = %v", y.Data[1])
	}
	dy := tensor.FromSlice(1, 2, []float32{1, 1})
	dx := l.Backward(dy)
	if math.Abs(float64(dx.Data[0])-1) > 1e-6 { // 1 - tanh(0)^2 = 1
		t.Fatalf("dx[0] = %v", dx.Data[0])
	}
}

func TestMSELoss(t *testing.T) {
	l := NewMSELoss()
	pred := tensor.FromSlice(2, 2, []float32{1, 2, 3, 4})
	target := tensor.FromSlice(2, 2, []float32{1, 2, 3, 6})
	got := l.Forward(pred, target)
	if math.Abs(got-1) > 1e-9 { // (0+0+0+4)/4
		t.Fatalf("MSE = %v, want 1", got)
	}
	g := l.Backward(pred, target)
	// d/dpred = 2(pred-target)/4; only last element nonzero: 2*(-2)/4 = -1.
	if g.Data[3] != -1 || g.Data[0] != 0 {
		t.Fatalf("grad = %v", g.Data)
	}
}

func TestMSEVectorHelper(t *testing.T) {
	if got := MSE([]float32{1, 3}, []float32{1, 1}); got != 2 {
		t.Fatalf("MSE = %v, want 2", got)
	}
}

// numericalGrad computes dLoss/dTheta by central differences for a given
// scalar-producing closure.
func numericalGrad(theta []float32, loss func() float64) []float64 {
	const h = 1e-3
	grads := make([]float64, len(theta))
	for i := range theta {
		orig := theta[i]
		theta[i] = orig + h
		lp := loss()
		theta[i] = orig - h
		lm := loss()
		theta[i] = orig
		grads[i] = (lp - lm) / (2 * h)
	}
	return grads
}

// TestGradCheckDense verifies backprop gradients against central
// differences for the paper's surrogate structure — a fused
// Dense(ReLU)→Dense→MSE chain, activation epilogue included.
func TestGradCheckDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	net := ArchitectureMLP(3, []int{5}, 4, 7)
	x := randBatch(rng, 6, 3)
	target := randBatch(rng, 6, 4)
	loss := NewMSELoss()

	forward := func() float64 { return loss.Forward(net.Forward(x), target) }

	net.ZeroGrad()
	pred := net.Forward(x)
	net.Backward(loss.Backward(pred, target))

	for _, p := range net.Params() {
		numeric := numericalGrad(p.Value.Data, forward)
		for i, g := range p.Grad.Data {
			if math.Abs(float64(g)-numeric[i]) > 2e-3*(1+math.Abs(numeric[i])) {
				t.Fatalf("param %s[%d]: backprop %v vs numeric %v", p.Name, i, g, numeric[i])
			}
		}
	}
}

// TestGradCheckInput verifies the gradient the network returns with respect
// to its input, which downstream users rely on for adjoints (§1 of the
// paper highlights surrogate differentiability).
func TestGradCheckInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	net := ArchitectureMLP(4, []int{6}, 3, 23)
	x := randBatch(rng, 2, 4)
	target := randBatch(rng, 2, 3)
	loss := NewMSELoss()

	net.ZeroGrad()
	dx := net.Backward(loss.Backward(net.Forward(x), target))

	numeric := numericalGrad(x.Data, func() float64 { return loss.Forward(net.Forward(x), target) })
	for i := range x.Data {
		if math.Abs(float64(dx.Data[i])-numeric[i]) > 2e-3*(1+math.Abs(numeric[i])) {
			t.Fatalf("input grad [%d]: %v vs %v", i, dx.Data[i], numeric[i])
		}
	}
}

func TestGradCheckTanh(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	init := NewInitializer(5)
	net := NewNetwork(NewDense("a", 3, 4, init), NewTanh(), NewDense("b", 4, 2, init))
	x := randBatch(rng, 3, 3)
	target := randBatch(rng, 3, 2)
	loss := NewMSELoss()
	net.ZeroGrad()
	net.Backward(loss.Backward(net.Forward(x), target))
	for _, p := range net.Params() {
		numeric := numericalGrad(p.Value.Data, func() float64 { return loss.Forward(net.Forward(x), target) })
		for i, g := range p.Grad.Data {
			if math.Abs(float64(g)-numeric[i]) > 2e-3*(1+math.Abs(numeric[i])) {
				t.Fatalf("param %s[%d]: %v vs %v", p.Name, i, g, numeric[i])
			}
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	net := ArchitectureMLP(2, []int{3}, 2, 3)
	rng := rand.New(rand.NewPCG(1, 2))
	x := randBatch(rng, 4, 2)
	target := randBatch(rng, 4, 2)
	loss := NewMSELoss()

	net.ZeroGrad()
	net.Backward(loss.Backward(net.Forward(x), target))
	first := net.Params()[0].Grad.Clone()

	// Second backward without ZeroGrad must accumulate (double).
	net.Backward(loss.Backward(net.Forward(x), target))
	second := net.Params()[0].Grad
	for i := range first.Data {
		if math.Abs(float64(second.Data[i]-2*first.Data[i])) > 1e-4 {
			t.Fatalf("gradient accumulation broken at %d: %v vs 2*%v", i, second.Data[i], first.Data[i])
		}
	}

	net.ZeroGrad()
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("ZeroGrad left nonzero gradient")
			}
		}
	}
}

func TestArchitectureMLPShape(t *testing.T) {
	// Paper §4.1: input 6, hidden 2×256, output 1M. We check the structure
	// and parameter count formula at reduced width.
	net := ArchitectureMLP(6, []int{256, 256}, 1024, 42)
	want := 6*256 + 256 + 256*256 + 256 + 256*1024 + 1024
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if len(net.Layers) != 3 { // two fused dense+relu, one linear dense
		t.Fatalf("layer count %d", len(net.Layers))
	}
	for i, wantAct := range []Activation{ActReLU, ActReLU, ActNone} {
		if act := net.Layers[i].(*Dense).Activation(); act != wantAct {
			t.Fatalf("layer %d activation %d, want %d", i, act, wantAct)
		}
	}
}

func TestSeededInitDeterministic(t *testing.T) {
	a := ArchitectureMLP(4, []int{8, 8}, 3, 99)
	b := ArchitectureMLP(4, []int{8, 8}, 3, 99)
	c := ArchitectureMLP(4, []int{8, 8}, 3, 100)
	pa, pb, pc := a.Params(), b.Params(), c.Params()
	same, diff := true, false
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				same = false
			}
			if pa[i].Value.Data[j] != pc[i].Value.Data[j] {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("same seed produced different weights")
	}
	if !diff {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestXavierRange(t *testing.T) {
	init := NewInitializer(7)
	m := tensor.New(64, 64)
	init.XavierUniform(m, 64, 64)
	limit := float32(math.Sqrt(6.0 / 128))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("weight %v outside ±%v", v, limit)
		}
	}
	// Not all zero and roughly centered.
	if s := tensor.SumF64(m.Data); math.Abs(s)/float64(len(m.Data)) > float64(limit)/4 {
		t.Fatalf("weights look biased: mean %v", s/float64(len(m.Data)))
	}
}

func TestCloneIndependence(t *testing.T) {
	net := ArchitectureMLP(3, []int{4}, 2, 1)
	clone := net.Clone()
	p0 := net.Params()[0]
	c0 := clone.Params()[0]
	for i := range p0.Value.Data {
		if p0.Value.Data[i] != c0.Value.Data[i] {
			t.Fatal("clone weights differ")
		}
	}
	p0.Value.Data[0] += 1
	if c0.Value.Data[0] == p0.Value.Data[0] {
		t.Fatal("clone shares weight storage")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	a := ArchitectureMLP(3, []int{4}, 2, 1)
	b := ArchitectureMLP(3, []int{4}, 2, 2)
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatal("weights not copied")
			}
		}
	}
	c := ArchitectureMLP(3, []int{5}, 2, 1)
	if err := c.CopyWeightsFrom(a); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	net := ArchitectureMLP(5, []int{7, 3}, 4, 8)
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	other := ArchitectureMLP(5, []int{7, 3}, 4, 9) // different seed
	if err := other.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	pn, po := net.Params(), other.Params()
	for i := range pn {
		for j := range pn[i].Value.Data {
			if pn[i].Value.Data[j] != po[i].Value.Data[j] {
				t.Fatalf("param %d differs after roundtrip", i)
			}
		}
	}
}

func TestLoadWeightsRejectsWrongArchitecture(t *testing.T) {
	net := ArchitectureMLP(5, []int{7}, 4, 8)
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	wrong := ArchitectureMLP(5, []int{8}, 4, 8)
	if err := wrong.LoadWeights(&buf); err == nil {
		t.Fatal("expected error loading into mismatched architecture")
	}
}

func TestLoadWeightsRejectsGarbage(t *testing.T) {
	net := ArchitectureMLP(2, []int{2}, 2, 1)
	if err := net.LoadWeights(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected error")
	}
	if err := net.LoadWeights(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error on empty input")
	}
	// Version 1 (values interleaved with per-param metadata) is retired.
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	binary.LittleEndian.PutUint32(v1[4:], 1)
	if err := net.LoadWeights(bytes.NewReader(v1)); err == nil {
		t.Fatal("expected error on a version 1 payload")
	}
}

// Property: save→load is the identity on weights for random architectures.
func TestSaveLoadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		h1 := 1 + int(seed%7)
		h2 := 1 + int((seed>>8)%7)
		net := ArchitectureMLP(3, []int{h1, h2}, 2, seed)
		var buf bytes.Buffer
		if err := net.SaveWeights(&buf); err != nil {
			return false
		}
		out := ArchitectureMLP(3, []int{h1, h2}, 2, seed+1)
		if err := out.LoadWeights(&buf); err != nil {
			return false
		}
		pn, po := net.Params(), out.Params()
		for i := range pn {
			for j := range pn[i].Value.Data {
				if pn[i].Value.Data[j] != po[i].Value.Data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedDenseMatchesUnfusedLayers pins the fused-epilogue contract:
// a fused Dense(act) layer must be bit-identical — forward output, every
// parameter gradient, and the input gradient — to the unfused
// Dense→activation layer pair it replaced, because bias and activation are
// applied after the identical GEMM accumulation in both paths.
func TestFusedDenseMatchesUnfusedLayers(t *testing.T) {
	for _, act := range []Activation{ActReLU, ActTanh} {
		name := map[Activation]string{ActReLU: "relu", ActTanh: "tanh"}[act]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(31, uint64(act)))
			build := func(fused bool) *Network {
				init := NewInitializer(123)
				if fused {
					return NewNetwork(NewDenseAct("h", 7, 33, act, init), NewDense("o", 33, 5, init))
				}
				var mid Layer = NewReLU()
				if act == ActTanh {
					mid = NewTanh()
				}
				return NewNetwork(NewDense("h", 7, 33, init), mid, NewDense("o", 33, 5, init))
			}
			fusedNet, plainNet := build(true), build(false)
			x := randBatch(rng, 9, 7)
			target := randBatch(rng, 9, 5)
			loss := NewMSELoss()

			fusedNet.ZeroGrad()
			fp := fusedNet.Forward(x)
			fdx := fusedNet.Backward(loss.Backward(fp, target))

			plainNet.ZeroGrad()
			pp := plainNet.Forward(x)
			pdx := plainNet.Backward(loss.Backward(pp, target))

			if d := fp.MaxAbsDiff(pp); d != 0 {
				t.Fatalf("forward differs by %v", d)
			}
			if d := fdx.MaxAbsDiff(pdx); d != 0 {
				t.Fatalf("input gradient differs by %v", d)
			}
			fparams, pparams := fusedNet.Params(), plainNet.Params()
			if len(fparams) != len(pparams) {
				t.Fatalf("param count %d vs %d", len(fparams), len(pparams))
			}
			for i := range fparams {
				if d := fparams[i].Grad.MaxAbsDiff(pparams[i].Grad); d != 0 {
					t.Fatalf("param %s gradient differs by %v", fparams[i].Name, d)
				}
			}
		})
	}
}

// TestTrainingReducesLoss is a smoke test that a few manual SGD steps on a
// tiny regression problem reduce the loss; full optimizer tests live in the
// opt package.
func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 200))
	net := ArchitectureMLP(2, []int{16}, 1, 5)
	loss := NewMSELoss()
	x := randBatch(rng, 32, 2)
	target := tensor.New(32, 1)
	for r := 0; r < 32; r++ {
		target.Set(r, 0, x.At(r, 0)+0.5*x.At(r, 1))
	}
	initial := loss.Forward(net.Forward(x), target)
	const lr = 0.05
	for step := 0; step < 200; step++ {
		net.ZeroGrad()
		pred := net.Forward(x)
		net.Backward(loss.Backward(pred, target))
		for _, p := range net.Params() {
			tensor.Axpy(-lr, p.Grad.Data, p.Value.Data)
		}
	}
	final := loss.Forward(net.Forward(x), target)
	if final > initial/10 {
		t.Fatalf("loss did not drop: %v -> %v", initial, final)
	}
}

// TestLayerParamRangesTileSlab verifies the bucket layout the overlapped
// gradient sync relies on: per-layer slab ranges tile [0, NumParams)
// exactly in layer order, and GradBuckets returns the non-empty ranges in
// reverse layer order — the order Backward finalizes their gradients.
func TestLayerParamRangesTileSlab(t *testing.T) {
	net := ArchitectureMLP(3, []int{4, 5}, 2, 1)
	off := 0
	for i, l := range net.Layers {
		lo, hi := net.LayerParamRange(i)
		if lo != off {
			t.Fatalf("layer %d starts at %d, want %d", i, lo, off)
		}
		size := 0
		for _, p := range l.Params() {
			size += p.Size()
		}
		if hi-lo != size {
			t.Fatalf("layer %d range %d elems, params hold %d", i, hi-lo, size)
		}
		off = hi
	}
	if off != net.NumParams() {
		t.Fatalf("ranges cover %d of %d slab elements", off, net.NumParams())
	}

	buckets := net.GradBuckets()
	if len(buckets) != 3 { // three Dense layers (activations are fused)
		t.Fatalf("got %d buckets, want 3", len(buckets))
	}
	prevLayer := len(net.Layers)
	for _, bk := range buckets {
		if bk.Layer >= prevLayer {
			t.Fatalf("buckets not in reverse layer order: %v", buckets)
		}
		prevLayer = bk.Layer
		if lo, hi := net.LayerParamRange(bk.Layer); lo != bk.Lo || hi != bk.Hi {
			t.Fatalf("bucket %+v mismatches layer range [%d,%d)", bk, lo, hi)
		}
		if bk.Lo >= bk.Hi {
			t.Fatalf("empty bucket %+v", bk)
		}
	}
}

// TestBackwardWithHookOrder verifies the hook contract: hook(i) fires once
// per layer, in reverse layer order, and by the time it fires the layer's
// gradient range is populated.
func TestBackwardWithHookOrder(t *testing.T) {
	net := ArchitectureMLP(3, []int{4}, 2, 2)
	x := tensor.New(2, 3)
	for i := range x.Data {
		x.Data[i] = float32(i) * 0.1
	}
	target := tensor.New(2, 2)
	loss := NewMSELoss()
	pred := net.Forward(x)
	loss.Forward(pred, target)

	var order []int
	net.BackwardWithHook(loss.Backward(pred, target), func(layer int) {
		order = append(order, layer)
		if lo, hi := net.LayerParamRange(layer); hi > lo {
			grads := net.FlatGrads()[lo:hi]
			nonzero := false
			for _, g := range grads {
				if g != 0 {
					nonzero = true
					break
				}
			}
			if !nonzero {
				t.Fatalf("layer %d hook fired with all-zero gradients", layer)
			}
		}
	})
	want := []int{1, 0} // fused hidden layer + output layer
	if len(order) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hook order %v, want %v", order, want)
		}
	}
}
