// Package rtlib provides the GPU scheduling runtime library that the
// accelOS JIT statically links into every transformed kernel (§6.3 of the
// paper), together with the memory layout the host runtime uses to build
// Virtual NDRanges in accelerator memory.
//
// The paper's "struct RT" (per kernel execution, in global memory) and
// "struct SD" (per work-group scheduling state, in local memory) are
// represented as long arrays with the fixed layouts below; the struct was
// only ever a carrier for these words.
package rtlib

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/clc"
	"repro/internal/ir"
)

// RT (runtime descriptor, global memory) word indices.
const (
	RTNext  = 0 // atomic dequeue cursor over the Virtual NDRange
	RTTotal = 1 // total number of virtual groups
	RTChunk = 2 // virtual groups handed out per scheduling operation
	RTDims  = 3 // dimensionality of the original NDRange
	RTVG    = 4 // RTVG+d: virtual group count in dimension d (3 words)
	RTLS    = 7 // RTLS+d: work-group size in dimension d (3 words)

	// RTWords is the size of the RT descriptor in 64-bit words.
	RTWords = 10
)

// SD (work-group scheduling state, local memory) word indices.
const (
	SDStatus = 0 // 0 = run, 1 = terminate
	SDBase   = 1 // first virtual group of the current chunk
	SDEnd    = 2 // one past the last virtual group of the current chunk

	// SDWords is the size of the SD block in 64-bit words.
	SDWords = 4
)

// StatusRun and StatusTerminate are the SDStatus values.
const (
	StatusRun       = 0
	StatusTerminate = 1
)

// Source is the CLC source of the scheduling library. rt_sched_wgroup
// performs the atomic dequeue of a chunk of virtual groups; the rt_*_id
// functions are the runtime replacements for the OpenCL work-item
// builtins (§6.2 step 3), decoding the linearized virtual group handle
// against the virtual grid stored in the RT descriptor.
const Source = `
/* accelOS GPU scheduling runtime library. */

void rt_env_init(global long* rt, local long* sd)
{
    sd[0] = 0; /* SDStatus = run */
    sd[1] = 0;
    sd[2] = 0;
}

void rt_sched_wgroup(global long* rt, local long* sd)
{
    long chunk = rt[2];
    long total = rt[1];
    long base = atom_add(&rt[0], chunk);
    if (base >= total) {
        sd[0] = 1; /* terminate */
    } else {
        long e = base + chunk;
        if (e > total) e = total;
        sd[0] = 0;
        sd[1] = base;
        sd[2] = e;
    }
}

int rt_is_master_workitem()
{
    /* One compare, no short-circuit branches: the scheduling kernel
       evaluates this once and every work-item of a warp must reach the
       same next instruction. */
    return (get_local_id(0) | get_local_id(1) | get_local_id(2)) == 0;
}

long rt_group_id(global long* rt, local long* sd, long hdlr, int d)
{
    long gx = rt[4];
    long gy = rt[5];
    if (d == 0) return hdlr % gx;
    if (d == 1) return (hdlr / gx) % gy;
    return hdlr / (gx * gy);
}

long rt_local_id(global long* rt, local long* sd, long hdlr, int d)
{
    return get_local_id(d);
}

long rt_global_id(global long* rt, local long* sd, long hdlr, int d)
{
    return rt_group_id(rt, sd, hdlr, d) * rt[7 + d] + get_local_id(d);
}

long rt_num_groups(global long* rt, local long* sd, long hdlr, int d)
{
    return rt[4 + d];
}

long rt_local_size(global long* rt, local long* sd, long hdlr, int d)
{
    return rt[7 + d];
}

long rt_global_size(global long* rt, local long* sd, long hdlr, int d)
{
    return rt[4 + d] * rt[7 + d];
}

long rt_global_offset(global long* rt, local long* sd, long hdlr, int d)
{
    return 0;
}

int rt_work_dim(global long* rt, local long* sd, long hdlr)
{
    return (int)rt[3];
}
`

// Replacement maps each OpenCL work-item builtin to its runtime
// equivalent in the scheduling library.
var Replacement = map[string]string{
	"get_global_id":     "rt_global_id",
	"get_local_id":      "rt_local_id",
	"get_group_id":      "rt_group_id",
	"get_num_groups":    "rt_num_groups",
	"get_local_size":    "rt_local_size",
	"get_global_size":   "rt_global_size",
	"get_global_offset": "rt_global_offset",
	"get_work_dim":      "rt_work_dim",
}

var (
	once   sync.Once
	cached *ir.Module
	cerr   error
)

// compiled returns the shared compiled library; callers must not
// mutate it.
func compiled() (*ir.Module, error) {
	once.Do(func() {
		cached, cerr = clc.Compile(Source, "rtlib")
		if cerr != nil {
			cerr = fmt.Errorf("rtlib: %w", cerr)
		}
	})
	return cached, cerr
}

// Module returns a fresh deep copy of the compiled runtime library
// module, safe to link into (and be mutated alongside) a kernel module.
// Compilation happens once and is cached.
func Module() (*ir.Module, error) {
	lib, err := compiled()
	if err != nil {
		return nil, err
	}
	return ir.CloneModule(lib), nil
}

// Link statically links the library into m: a private copy of every
// library function m calls without defining it, and of whatever those
// call in turn. A kernel that only asks for its global id gets five of
// the eleven functions, and the JIT stages after this one (clean-up,
// verification, O1, bytecode lowering) never see the rest.
func Link(m *ir.Module) error {
	lib, err := compiled()
	if err != nil {
		return err
	}
	need := make(map[string]bool)
	var scan func(f *ir.Function)
	scan = func(f *ir.Function) {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || need[in.Callee] {
					continue
				}
				lf := lib.Lookup(in.Callee)
				if lf == nil {
					continue
				}
				if mf := m.Lookup(in.Callee); mf != nil && !mf.IsDecl() {
					continue
				}
				need[in.Callee] = true
				scan(lf)
			}
		}
	}
	for _, f := range m.Funcs {
		scan(f)
	}
	part := ir.NewModule(lib.Name)
	for _, lf := range lib.Funcs {
		if need[lf.Name] {
			part.Add(ir.CloneFunction(lf))
		}
	}
	return ir.Link(m, part)
}

// BuildRT fills a host-side image of the RT descriptor for a kernel
// execution whose original NDRange has the given dimensions, with the
// chunk size chosen by the adaptive scheduling policy.
func BuildRT(dims int, numGroups, localSize [3]int64, chunk int) []int64 {
	rt := make([]int64, RTWords)
	rt[RTNext] = 0
	rt[RTTotal] = numGroups[0] * numGroups[1] * numGroups[2]
	rt[RTChunk] = int64(chunk)
	rt[RTDims] = int64(dims)
	for d := 0; d < 3; d++ {
		rt[RTVG+d] = numGroups[d]
		rt[RTLS+d] = localSize[d]
	}
	return rt
}

// EncodeRT renders the RT descriptor words as the little-endian byte
// image the transformed kernel dereferences as `global long*`. The host
// runtime binds this image into the interpreter machine and rewrites
// individual words between execution slices.
func EncodeRT(words []int64) []byte {
	b := make([]byte, len(words)*8)
	for i, w := range words {
		PutWord(b, i, w)
	}
	return b
}

// PutWord writes RT descriptor word idx into an encoded image — the
// host side of driving the dequeue cursor (RTNext), the slice horizon
// (RTTotal) and the chunk size (RTChunk) between slices.
func PutWord(img []byte, idx int, w int64) {
	binary.LittleEndian.PutUint64(img[idx*8:], uint64(w))
}

// Word reads RT descriptor word idx from an encoded image.
func Word(img []byte, idx int) int64 {
	return int64(binary.LittleEndian.Uint64(img[idx*8:]))
}
