//go:build amd64

#include "textflag.h"

// GF2P8AFFINEQB region kernels. Each processes n bytes (n > 0, n a
// multiple of 64) of dst ^= a*src — at w=8, of a whole batch of such
// terms — with each constant's multiplication matrix pre-encoded by
// the builders in affine.go. Word lanes are little-endian, matching
// the portable kernels.
//
// GF(2^16) and GF(2^32) words mix bytes, but GF2P8AFFINEQB transforms
// each byte with the matrix of its own qword lane. The kernels
// therefore VPERMB each 64-byte vector into planar form — all bytes of
// word-lane position i grouped together — so one matrix vector applies
// the right 8×8 block everywhere, then permute back. Block A_ij
// (output byte i from input byte j) is applied by aligning plane j
// with plane position i (half-swap at w=16, 128-bit lane rotation at
// w=32) under a matrix vector holding A_ij in plane i's qwords.

// Planarizing permutation for GF(2^16): low bytes of the 32 words to
// bytes 0..31, high bytes to bytes 32..63.
DATA p16<>+0x00(SB)/8, $0x0e0c0a0806040200
DATA p16<>+0x08(SB)/8, $0x1e1c1a1816141210
DATA p16<>+0x10(SB)/8, $0x2e2c2a2826242220
DATA p16<>+0x18(SB)/8, $0x3e3c3a3836343230
DATA p16<>+0x20(SB)/8, $0x0f0d0b0907050301
DATA p16<>+0x28(SB)/8, $0x1f1d1b1917151311
DATA p16<>+0x30(SB)/8, $0x2f2d2b2927252321
DATA p16<>+0x38(SB)/8, $0x3f3d3b3937353331
GLOBL p16<>(SB), RODATA|NOPTR, $64

// Inverse: byte 2k <- k, byte 2k+1 <- 32+k.
DATA p16i<>+0x00(SB)/8, $0x2303220221012000
DATA p16i<>+0x08(SB)/8, $0x2707260625052404
DATA p16i<>+0x10(SB)/8, $0x2b0b2a0a29092808
DATA p16i<>+0x18(SB)/8, $0x2f0f2e0e2d0d2c0c
DATA p16i<>+0x20(SB)/8, $0x3313321231113010
DATA p16i<>+0x28(SB)/8, $0x3717361635153414
DATA p16i<>+0x30(SB)/8, $0x3b1b3a1a39193818
DATA p16i<>+0x38(SB)/8, $0x3f1f3e1e3d1d3c1c
GLOBL p16i<>(SB), RODATA|NOPTR, $64

// Planarizing permutation for GF(2^32): byte j of each of the 16 words
// to 16-byte plane j.
DATA p32<>+0x00(SB)/8, $0x1c1814100c080400
DATA p32<>+0x08(SB)/8, $0x3c3834302c282420
DATA p32<>+0x10(SB)/8, $0x1d1915110d090501
DATA p32<>+0x18(SB)/8, $0x3d3935312d292521
DATA p32<>+0x20(SB)/8, $0x1e1a16120e0a0602
DATA p32<>+0x28(SB)/8, $0x3e3a36322e2a2622
DATA p32<>+0x30(SB)/8, $0x1f1b17130f0b0703
DATA p32<>+0x38(SB)/8, $0x3f3b37332f2b2723
GLOBL p32<>(SB), RODATA|NOPTR, $64

// Inverse: byte 4k+j <- 16j+k.
DATA p32i<>+0x00(SB)/8, $0x3121110130201000
DATA p32i<>+0x08(SB)/8, $0x3323130332221202
DATA p32i<>+0x10(SB)/8, $0x3525150534241404
DATA p32i<>+0x18(SB)/8, $0x3727170736261606
DATA p32i<>+0x20(SB)/8, $0x3929190938281808
DATA p32i<>+0x28(SB)/8, $0x3b2b1b0b3a2a1a0a
DATA p32i<>+0x30(SB)/8, $0x3d2d1d0d3c2c1c0c
DATA p32i<>+0x38(SB)/8, $0x3f2f1f0f3e2e1e0e
GLOBL p32i<>(SB), RODATA|NOPTR, $64

// func gf8FusedAsm(dst *byte, xs *[]byte, nx int, ts *[]byte, mats *uint64, nt int, n int)
// One pass of a whole GF(2^8) row batch: dst ^= Σ xs[k] ^ Σ mats[k]*ts[k]
// over n bytes. Bytes transform independently at w=8, so each block of
// dst is loaded once, every coefficient-1 source is VPXORQ'd straight
// in, every multiplied source goes through one GF2P8AFFINEQB against
// its broadcast matrix, and the block is stored once. 256-byte blocks
// keep four accumulators in flight so the per-term loop overhead and
// the dependent XOR chain are spread over four vectors; the 64-byte
// loop finishes the remainder.
TEXT ·gf8FusedAsm(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ xs+8(FP), SI
	MOVQ nx+16(FP), BX
	MOVQ ts+24(FP), DX
	MOVQ mats+32(FP), R9
	MOVQ nt+40(FP), R10
	MOVQ n+48(FP), CX
	XORQ R8, R8                // byte offset into every region
	MOVQ CX, AX
	ANDQ $-256, AX             // end of the 256-byte blocks
	JZ   tail64

block256:
	VMOVDQU64 (DI)(R8*1), Z0
	VMOVDQU64 64(DI)(R8*1), Z1
	VMOVDQU64 128(DI)(R8*1), Z2
	VMOVDQU64 192(DI)(R8*1), Z3
	MOVQ      SI, R11
	MOVQ      BX, R12
	TESTQ     R12, R12
	JZ        mul256

xor256:
	MOVQ   (R11), R13          // xs[k] data pointer
	VPXORQ (R13)(R8*1), Z0, Z0
	VPXORQ 64(R13)(R8*1), Z1, Z1
	VPXORQ 128(R13)(R8*1), Z2, Z2
	VPXORQ 192(R13)(R8*1), Z3, Z3
	ADDQ   $24, R11            // next slice header
	DECQ   R12
	JNZ    xor256

mul256:
	MOVQ  DX, R11
	MOVQ  R9, R14
	MOVQ  R10, R12
	TESTQ R12, R12
	JZ    store256

aff256:
	MOVQ           (R11), R13  // ts[k] data pointer
	VPBROADCASTQ   (R14), Z4   // mats[k]
	VMOVDQU64      (R13)(R8*1), Z5
	VMOVDQU64      64(R13)(R8*1), Z6
	VMOVDQU64      128(R13)(R8*1), Z7
	VMOVDQU64      192(R13)(R8*1), Z8
	VGF2P8AFFINEQB $0, Z4, Z5, Z5
	VGF2P8AFFINEQB $0, Z4, Z6, Z6
	VGF2P8AFFINEQB $0, Z4, Z7, Z7
	VGF2P8AFFINEQB $0, Z4, Z8, Z8
	VPXORQ         Z5, Z0, Z0
	VPXORQ         Z6, Z1, Z1
	VPXORQ         Z7, Z2, Z2
	VPXORQ         Z8, Z3, Z3
	ADDQ           $24, R11
	ADDQ           $8, R14
	DECQ           R12
	JNZ            aff256

store256:
	VMOVDQU64 Z0, (DI)(R8*1)
	VMOVDQU64 Z1, 64(DI)(R8*1)
	VMOVDQU64 Z2, 128(DI)(R8*1)
	VMOVDQU64 Z3, 192(DI)(R8*1)
	ADDQ      $256, R8
	CMPQ      R8, AX
	JB        block256

tail64:
	CMPQ R8, CX
	JAE  done

block64:
	VMOVDQU64 (DI)(R8*1), Z0
	MOVQ      SI, R11
	MOVQ      BX, R12
	TESTQ     R12, R12
	JZ        mul64

xor64:
	MOVQ   (R11), R13
	VPXORQ (R13)(R8*1), Z0, Z0
	ADDQ   $24, R11
	DECQ   R12
	JNZ    xor64

mul64:
	MOVQ  DX, R11
	MOVQ  R9, R14
	MOVQ  R10, R12
	TESTQ R12, R12
	JZ    store64

aff64:
	MOVQ           (R11), R13
	VPBROADCASTQ   (R14), Z4
	VMOVDQU64      (R13)(R8*1), Z5
	VGF2P8AFFINEQB $0, Z4, Z5, Z5
	VPXORQ         Z5, Z0, Z0
	ADDQ           $24, R11
	ADDQ           $8, R14
	DECQ           R12
	JNZ            aff64

store64:
	VMOVDQU64 Z0, (DI)(R8*1)
	ADDQ      $64, R8
	CMPQ      R8, CX
	JB        block64

done:
	VZEROUPPER
	RET

// func gf16AffineXorAsm(dst, src *byte, n int, mats *[2][8]uint64)
TEXT ·gf16AffineXorAsm(SB), NOSPLIT, $0-32
	MOVQ      dst+0(FP), DI
	MOVQ      src+8(FP), SI
	MOVQ      n+16(FP), CX
	MOVQ      mats+24(FP), DX
	VMOVDQU64 p16<>(SB), Z5
	VMOVDQU64 p16i<>(SB), Z6
	VMOVDQU64 (DX), Z7             // [A00 ×4 | A11 ×4]
	VMOVDQU64 64(DX), Z8           // [A01 ×4 | A10 ×4]

loop16:
	VMOVDQU64      (SI), Z0
	VPERMB         Z0, Z5, Z1      // planar: lo plane | hi plane
	VSHUFI64X2     $0x4E, Z1, Z1, Z2 // planes swapped
	VGF2P8AFFINEQB $0, Z7, Z1, Z3
	VGF2P8AFFINEQB $0, Z8, Z2, Z4
	VPXORQ         Z3, Z4, Z3
	VPERMB         Z3, Z6, Z3      // back to interleaved
	VPXORQ         (DI), Z3, Z3
	VMOVDQU64      Z3, (DI)
	ADDQ           $64, SI
	ADDQ           $64, DI
	SUBQ           $64, CX
	JNE            loop16
	VZEROUPPER
	RET

// func gf32AffineXorAsm(dst, src *byte, n int, mats *[4][8]uint64)
TEXT ·gf32AffineXorAsm(SB), NOSPLIT, $0-32
	MOVQ      dst+0(FP), DI
	MOVQ      src+8(FP), SI
	MOVQ      n+16(FP), CX
	MOVQ      mats+24(FP), DX
	VMOVDQU64 p32<>(SB), Z5
	VMOVDQU64 p32i<>(SB), Z6
	VMOVDQU64 (DX), Z7             // A_{i,i} in plane i
	VMOVDQU64 64(DX), Z8           // A_{i,(i+1)&3}
	VMOVDQU64 128(DX), Z9          // A_{i,(i+2)&3}
	VMOVDQU64 192(DX), Z10         // A_{i,(i+3)&3}

loop32:
	VMOVDQU64      (SI), Z0
	VPERMB         Z0, Z5, Z1      // planar: plane i at 128-bit lane i
	VGF2P8AFFINEQB $0, Z7, Z1, Z2
	VSHUFI32X4     $0x39, Z1, Z1, Z3 // lane i <- plane (i+1)&3
	VGF2P8AFFINEQB $0, Z8, Z3, Z4
	VPXORQ         Z4, Z2, Z2
	VSHUFI32X4     $0x4E, Z1, Z1, Z3 // lane i <- plane (i+2)&3
	VGF2P8AFFINEQB $0, Z9, Z3, Z4
	VPXORQ         Z4, Z2, Z2
	VSHUFI32X4     $0x93, Z1, Z1, Z3 // lane i <- plane (i+3)&3
	VGF2P8AFFINEQB $0, Z10, Z3, Z4
	VPXORQ         Z4, Z2, Z2
	VPERMB         Z2, Z6, Z2      // back to interleaved
	VPXORQ         (DI), Z2, Z2
	VMOVDQU64      Z2, (DI)
	ADDQ           $64, SI
	ADDQ           $64, DI
	SUBQ           $64, CX
	JNE            loop32
	VZEROUPPER
	RET
