package kernels

import "math"

// Key is a kernel's fixed-size, comparable identity: the tag every
// forecast cache along the serving path stores its entries under. A cache
// tag must cover every bit that distinguishes the stored value, so Key
// carries each field a forecast can depend on — operator, dimensions,
// precision, the fused FLOP and byte totals, and the real input size of a
// convolution — exactly, as raw bits. Label, which drops several of these,
// is for display only.
//
// The fused-op chain is packed in order: the first PackedFusedOps ops plus
// the chain length. Two chains that agree on that prefix and length but
// differ further down share a Key; that is safe because a forecast reads a
// fused kernel's cost only through FusedFLOPs and FusedBytes, which the Key
// carries exactly.
//
// The zero Key is the identity of the zero Kernel. Keys are built with
// Kernel.Key and compared with ==.
type Key struct {
	b, m, k, n int
	// Raw bits of FusedFLOPs and FusedBytes (zero unless fused) and of
	// ConvInputElems: bitwise equality keeps NaN keys deletable from maps.
	flops, bytes, convIn uint64
	fusedOps             uint64 // first PackedFusedOps fused ops, opBits each, in order
	fusedLen             uint32
	op, dtype            uint8
	fused                bool
}

// PackedFusedOps is how many leading ops of a fused chain a Key packs.
const PackedFusedOps = 64 / opBits

// opBits is the width of one packed operator: the Op enum must stay below
// 1<<opBits (it holds 17 operators).
const opBits = 6

// Key returns k's identity (see Key).
func (k Kernel) Key() Key {
	key := Key{
		b: k.B, m: k.M, k: k.K, n: k.N,
		convIn: math.Float64bits(k.ConvInputElems),
		op:     uint8(k.Op),
		dtype:  uint8(k.DType),
	}
	if k.Fused {
		key.fused = true
		key.flops = math.Float64bits(k.FusedFLOPs)
		key.bytes = math.Float64bits(k.FusedBytes)
		key.fusedLen = uint32(len(k.FusedOps))
		for i, op := range k.FusedOps {
			if i == PackedFusedOps {
				break
			}
			key.fusedOps |= uint64(op&(1<<opBits-1)) << (opBits * i)
		}
	}
	return key
}
