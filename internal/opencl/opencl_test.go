package opencl

import (
	"encoding/binary"
	"math"
	"testing"
)

const vadd = `
kernel void vadd(global const float* a, global const float* b, global float* c, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
`

func TestPlatformsAndContext(t *testing.T) {
	ps := GetPlatforms()
	if len(ps) != 2 {
		t.Fatalf("%d platforms, want 2", len(ps))
	}
	ctx := ps[0].CreateContext()
	if ctx.GlobalMemBytes() != ps[0].Dev.GlobalMemMB*1024*1024 {
		t.Error("context capacity mismatch")
	}
}

func TestBufferLifecycle(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	b, err := ctx.CreateBuffer(1024)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.AllocatedBytes() != 1024 {
		t.Errorf("allocated = %d", ctx.AllocatedBytes())
	}
	b.Release()
	if ctx.AllocatedBytes() != 0 {
		t.Errorf("allocated after release = %d", ctx.AllocatedBytes())
	}
	b.Release() // double release is a no-op
	if ctx.AllocatedBytes() != 0 {
		t.Error("double release corrupted accounting")
	}
	if _, err := ctx.CreateBuffer(-1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := ctx.CreateBuffer(ctx.GlobalMemBytes() + 1); err == nil {
		t.Error("oversized allocation accepted")
	}
}

// TestOutOfMemory models a 1 MB device: the test asks for half the
// device twice, and half of the platform's 5 GB device twice drove the
// race-enabled test binary to several GB of resident memory.
func TestOutOfMemory(t *testing.T) {
	dev := *GetPlatforms()[0].Dev
	dev.GlobalMemMB = 1
	ctx := (&Platform{Dev: &dev}).CreateContext()
	half := ctx.GlobalMemBytes()/2 + 1
	a, err := ctx.CreateBuffer(half)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateBuffer(half); err != ErrOutOfMemory {
		t.Errorf("second half-device allocation: %v, want ErrOutOfMemory", err)
	}
	a.Release()
	if _, err := ctx.CreateBuffer(half); err != nil {
		t.Errorf("allocation after release failed: %v", err)
	}
}

func TestProgramBuildErrors(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	p := ctx.CreateProgramWithSource("kernel void broken( { }")
	if err := p.Build(); err == nil {
		t.Error("syntax error not reported")
	}
	p2 := ctx.CreateProgramWithSource(vadd)
	if err := p2.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.CreateKernel("missing"); err == nil {
		t.Error("unknown kernel accepted")
	}
	unbuilt := ctx.CreateProgramWithSource(vadd)
	if _, err := unbuilt.CreateKernel("vadd"); err == nil {
		t.Error("kernel from unbuilt program accepted")
	}
}

func TestEndToEndLaunch(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	q := ctx.CreateCommandQueue()
	p := ctx.CreateProgramWithSource(vadd)
	if err := p.Build(); err != nil {
		t.Fatal(err)
	}
	k, err := p.CreateKernel("vadd")
	if err != nil {
		t.Fatal(err)
	}
	if k.NumArgs() != 4 {
		t.Fatalf("NumArgs = %d", k.NumArgs())
	}

	const n = 256
	mk := func() *Buffer {
		b, err := ctx.CreateBuffer(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, bb, c := mk(), mk(), mk()
	host := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(i)))
	}
	if err := q.EnqueueWriteBuffer(a, 0, host); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueWriteBuffer(bb, 0, host); err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, a)
	_ = k.SetArgBuffer(1, bb)
	_ = k.SetArgBuffer(2, c)
	_ = k.SetArgInt32(3, n)
	nd := NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{64, 1, 1}}
	if err := q.EnqueueNDRangeKernel(k, nd); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n*4)
	if err := q.EnqueueReadBuffer(c, 0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(out[i*4:]))
		if got != float32(2*i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, float32(2*i))
		}
	}
}

func TestLaunchWithUnsetArg(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	q := ctx.CreateCommandQueue()
	p := ctx.CreateProgramWithSource(vadd)
	_ = p.Build()
	k, _ := p.CreateKernel("vadd")
	nd := NDRange{Dims: 1, Global: [3]int64{64, 1, 1}, Local: [3]int64{64, 1, 1}}
	if err := q.EnqueueNDRangeKernel(k, nd); err == nil {
		t.Error("launch with unset arguments accepted")
	}
}

func TestBufferBounds(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	q := ctx.CreateCommandQueue()
	b, _ := ctx.CreateBuffer(16)
	if err := q.EnqueueWriteBuffer(b, 8, make([]byte, 16)); err == nil {
		t.Error("out-of-bounds write accepted")
	}
	if err := q.EnqueueReadBuffer(b, -1, make([]byte, 4)); err == nil {
		t.Error("negative-offset read accepted")
	}
}

func TestSetArgIndexValidation(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	p := ctx.CreateProgramWithSource(vadd)
	_ = p.Build()
	k, _ := p.CreateKernel("vadd")
	if err := k.SetArgInt32(9, 1); err == nil {
		t.Error("argument index out of range accepted")
	}
	if err := k.SetArgInt64(-1, 1); err == nil {
		t.Error("negative argument index accepted")
	}
	if err := k.SetArgFloat32(4, 1); err == nil {
		t.Error("argument index == NumArgs accepted")
	}
}
