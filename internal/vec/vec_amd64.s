//go:build amd64 && !purego

#include "textflag.h"

// func BlurPlane(y []byte, w, h int, hs []byte)
//
// Separable: every row's horizontal 3-sums, source columns x-1 … x+1 added
// in 16-bit lanes, are made once, into the ring of three rows hs holds. An
// interior row is written from the ring rows of the rows above it, itself and
// below it, which are filled before it is overwritten: each step makes the
// sums of the row below and, in the same block, adds the three ring rows and
// divides by nine as x·7282>>16, which ninths proves exact below 2¹⁵. The
// block that writes outputs x0+1 … x0+16 reads source columns x0 … x0+17,
// so the last block starts at w-18 and may overlap the one before it; both
// write the same bytes there.
TEXT ·BlurPlane(SB), NOSPLIT, $0-64
	MOVQ y_base+0(FP), SI
	MOVQ w+24(FP), DX
	MOVQ h+32(FP), CX
	MOVQ hs_base+40(FP), R8 // sums of the row above
	LEAQ (R8)(DX*2), R9     // of the row written
	LEAQ (R9)(DX*2), R10    // of the row below
	MOVQ DX, R11
	SUBQ $18, R11 // start of the last block
	MOVL $7282, AX
	VMOVD AX, X15
	VPBROADCASTW X15, Y15
	LEAQ (SI)(DX*1), DI
	XORQ BX, BX

firstBlock: // the sums of rows 0 and 1
	CMPQ    BX, R11
	CMOVQGT R11, BX
	VPMOVZXBW (SI)(BX*1), Y0
	VPMOVZXBW 1(SI)(BX*1), Y1
	VPMOVZXBW 2(SI)(BX*1), Y2
	VPMOVZXBW (DI)(BX*1), Y3
	VPMOVZXBW 1(DI)(BX*1), Y4
	VPMOVZXBW 2(DI)(BX*1), Y5
	VPADDW    Y1, Y0, Y0
	VPADDW    Y4, Y3, Y3
	VPADDW    Y2, Y0, Y0
	VPADDW    Y5, Y3, Y3
	VMOVDQU   Y0, (R8)(BX*2)
	VMOVDQU   Y3, (R9)(BX*2)
	CMPQ BX, R11
	JEQ  firstDone
	ADDQ $16, BX
	JMP  firstBlock

firstDone:
	SUBQ $2, CX // interior rows
	MOVQ DI, SI // the row written
	ADDQ DX, DI // the row below

blurRow:
	XORQ BX, BX
	// The row loop starts on a 64-byte boundary. The padding also sets the
	// offset modulo 64 of all code linked after this function, which moves
	// workloads that run no kernel: with 32 bytes less of it, serve_warm
	// read about 15 % slower (ROADMAP, the layout trap).
	PCALIGN $64

blurBlock:
	CMPQ    BX, R11
	CMOVQGT R11, BX
	VPMOVZXBW (DI)(BX*1), Y0
	VPMOVZXBW 1(DI)(BX*1), Y1
	VPMOVZXBW 2(DI)(BX*1), Y2
	VPADDW    Y1, Y0, Y0
	VPADDW    Y2, Y0, Y0
	VMOVDQU   Y0, (R10)(BX*2)
	VPADDW    (R8)(BX*2), Y0, Y0
	VPADDW    (R9)(BX*2), Y0, Y0
	VPMULHUW  Y15, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKUSWB X1, X0, X0
	VMOVDQU   X0, 1(SI)(BX*1)
	CMPQ BX, R11
	JEQ  blurNext
	ADDQ $16, BX
	JMP  blurBlock

blurNext:
	MOVQ R8, AX // the ring turns: above's row is the next row below's
	MOVQ R9, R8
	MOVQ R10, R9
	MOVQ AX, R10
	MOVQ DI, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  blurRow
	VZEROUPPER
	RET

// func ColumnSums(dst []uint16, src []byte, stride, rows int)
//
// Sixteen columns per block: each of the block's rows is widened to 16-bit
// lanes and added. The last block starts at len(dst)-16 and may overlap the
// one before it; both write the same sums there.
TEXT ·ColumnSums(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ stride+48(FP), DX
	MOVQ rows+56(FP), R8
	SUBQ $16, CX // start of the last block
	XORQ BX, BX

colBlock:
	CMPQ    BX, CX
	CMOVQGT CX, BX
	LEAQ    (SI)(BX*1), R9
	MOVQ    R8, R10
	VPXOR   Y0, Y0, Y0

colRow:
	VPMOVZXBW (R9), Y1
	VPADDW    Y1, Y0, Y0
	ADDQ      DX, R9
	DECQ      R10
	JNZ       colRow
	VMOVDQU   Y0, (DI)(BX*2)
	CMPQ BX, CX
	JEQ  colDone
	ADDQ $16, BX
	JMP  colBlock

colDone:
	VZEROUPPER
	RET

// func WindowSums(dst, cols []uint16, k int)
//
// Sixteen windows per block: k unaligned loads of cols, each one lane further
// along, added. The last block starts at len(dst)-16 and may overlap the one
// before it.
TEXT ·WindowSums(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ cols_base+24(FP), SI
	MOVQ k+48(FP), R8
	SUBQ $16, CX // start of the last block
	XORQ BX, BX

winBlock:
	CMPQ    BX, CX
	CMOVQGT CX, BX
	LEAQ    (SI)(BX*2), R9
	MOVQ    R8, R10
	VPXOR   Y0, Y0, Y0

winLane:
	VPADDW  (R9), Y0, Y0
	ADDQ    $2, R9
	DECQ    R10
	JNZ     winLane
	VMOVDQU Y0, (DI)(BX*2)
	CMPQ BX, CX
	JEQ  winDone
	ADDQ $16, BX
	JMP  winBlock

winDone:
	VZEROUPPER
	RET

// func BoxMeans(dst []byte, runs, cols []uint16, starts, wides []int32, narrow, wide uint32)
//
// Eight outputs per block: two gathers of 32 bits at 16-bit positions (the
// low half is the wanted lane), the wide boxes' extra column masked in, and
// each sum times its reciprocal in 64-bit products, of which bits 31 and up
// are kept. The last block starts at len(dst)-8 and may overlap.
TEXT ·BoxMeans(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ runs_base+24(FP), SI
	MOVQ cols_base+48(FP), DX
	MOVQ starts_base+72(FP), R8
	MOVQ wides_base+96(FP), R9
	MOVL narrow+120(FP), AX
	VMOVD AX, X10
	VPBROADCASTD X10, Y10
	MOVL wide+124(FP), AX
	VMOVD AX, X11
	VPBROADCASTD X11, Y11
	VPCMPEQD Y12, Y12, Y12
	VPSRLD   $16, Y12, Y12 // 0xffff in every lane
	SUBQ $8, CX            // start of the last block
	XORQ BX, BX

meanBlock:
	CMPQ    BX, CX
	CMOVQGT CX, BX
	VMOVDQU (R8)(BX*4), Y0
	VMOVDQU (R9)(BX*4), Y1
	VPCMPEQD   Y2, Y2, Y2
	VPXOR      Y3, Y3, Y3
	VPGATHERDD Y2, (SI)(Y0*2), Y3
	VPCMPEQD   Y2, Y2, Y2
	VPXOR      Y4, Y4, Y4
	VPGATHERDD Y2, (DX)(Y0*2), Y4
	VPAND      Y12, Y3, Y3
	VPAND      Y12, Y4, Y4
	VPAND      Y1, Y4, Y4
	VPADDD     Y4, Y3, Y3
	VPBLENDVB  Y1, Y11, Y10, Y5
	VPMULUDQ   Y5, Y3, Y6
	VPSRLQ     $32, Y3, Y7
	VPSRLQ     $32, Y5, Y8
	VPMULUDQ   Y8, Y7, Y7
	VPSRLQ     $31, Y6, Y6
	VPSLLQ     $1, Y7, Y7
	VPBLENDD   $0xaa, Y7, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPACKUSDW  X7, X6, X6
	VPACKUSWB  X6, X6, X6
	MOVQ       X6, (DI)(BX*1)
	CMPQ BX, CX
	JEQ  meanDone
	ADDQ $8, BX
	JMP  meanBlock

meanDone:
	VZEROUPPER
	RET

// func AddBytes(acc, delta []byte)
//
// Thirty-two bytes per step; a delta block of zeros — most of them, after
// the encoder's deadzone — leaves acc as it is and is skipped.
TEXT ·AddBytes(SB), NOSPLIT, $0-48
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ delta_base+24(FP), SI
	XORQ BX, BX

addLoop:
	CMPQ    BX, CX
	JAE     addDone
	VMOVDQU (SI)(BX*1), Y0
	VPTEST  Y0, Y0
	JZ      addNext
	VPADDB  (DI)(BX*1), Y0, Y0
	VMOVDQU Y0, (DI)(BX*1)

addNext:
	ADDQ $32, BX
	JMP  addLoop

addDone:
	VZEROUPPER
	RET

// func MaskOr(p []byte, keep, set byte)
TEXT ·MaskOr(SB), NOSPLIT, $0-26
	MOVQ    p_base+0(FP), DI
	MOVQ    p_len+8(FP), CX
	MOVBLZX keep+24(FP), AX
	MOVBLZX set+25(FP), DX
	VMOVD   AX, X1
	VPBROADCASTB X1, Y1
	VMOVD   DX, X2
	VPBROADCASTB X2, Y2
	XORQ    BX, BX

maskLoop:
	CMPQ    BX, CX
	JAE     maskDone
	VPAND   (DI)(BX*1), Y1, Y0
	VPOR    Y2, Y0, Y0
	VMOVDQU Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     maskLoop

maskDone:
	VZEROUPPER
	RET

// func DeadzoneDelta(delta, cur, prev []byte, dz byte)
//
// d = cur-prev is suppressed where min(d+dz, 2·dz) = d+dz, unsigned, and
// cur rewritten as prev plus the delta kept.
TEXT ·DeadzoneDelta(SB), NOSPLIT, $0-73
	MOVQ    delta_base+0(FP), DI
	MOVQ    delta_len+8(FP), CX
	MOVQ    cur_base+24(FP), SI
	MOVQ    prev_base+48(FP), DX
	MOVBLZX dz+72(FP), AX
	VMOVD   AX, X1
	VPBROADCASTB X1, Y1 // dz
	VPADDB  Y1, Y1, Y2  // 2·dz
	XORQ    BX, BX

dzLoop:
	CMPQ    BX, CX
	JAE     dzDone
	VMOVDQU (SI)(BX*1), Y3
	VMOVDQU (DX)(BX*1), Y4
	VPSUBB  Y4, Y3, Y5 // d
	VPADDB  Y1, Y5, Y6
	VPMINUB Y2, Y6, Y7
	VPCMPEQB Y7, Y6, Y7 // all ones where suppressed
	VPANDN  Y5, Y7, Y5
	VMOVDQU Y5, (DI)(BX*1)
	VPADDB  Y4, Y5, Y3
	VMOVDQU Y3, (SI)(BX*1)
	ADDQ    $32, BX
	JMP     dzLoop

dzDone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
