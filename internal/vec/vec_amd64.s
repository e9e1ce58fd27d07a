//go:build amd64 && !purego

#include "textflag.h"

// func BlurRow(dst, above, cur, below []byte)
//
// Writes dst[1 : len(dst)-1], the 3×3 box means of one interior row, from
// the three source rows, sixteen outputs per block: the nine samples of
// every window are widened to 16-bit lanes and added (at most 9·255), then
// divided by nine as x·7282>>16, which ninths proves exact below 2¹⁵. The
// block that writes outputs x0+1 … x0+16 reads source columns x0 … x0+17,
// so the last block starts at len(dst)-18 and may overlap the one before it;
// both write the same bytes there.
TEXT ·BlurRow(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ above_base+24(FP), R8
	MOVQ cur_base+48(FP), R9
	MOVQ below_base+72(FP), R10
	MOVL $7282, AX
	VMOVD AX, X15
	VPBROADCASTW X15, Y15
	SUBQ $18, CX // start of the last block
	XORQ BX, BX

block:
	CMPQ    BX, CX
	CMOVQGT CX, BX
	VPMOVZXBW (R8)(BX*1), Y0
	VPMOVZXBW 1(R8)(BX*1), Y1
	VPMOVZXBW 2(R8)(BX*1), Y2
	VPMOVZXBW (R9)(BX*1), Y3
	VPMOVZXBW 1(R9)(BX*1), Y4
	VPMOVZXBW 2(R9)(BX*1), Y5
	VPMOVZXBW (R10)(BX*1), Y6
	VPMOVZXBW 1(R10)(BX*1), Y7
	VPMOVZXBW 2(R10)(BX*1), Y8
	VPADDW    Y1, Y0, Y0
	VPADDW    Y3, Y2, Y2
	VPADDW    Y5, Y4, Y4
	VPADDW    Y7, Y6, Y6
	VPADDW    Y2, Y0, Y0
	VPADDW    Y6, Y4, Y4
	VPADDW    Y8, Y0, Y0
	VPADDW    Y4, Y0, Y0
	VPMULHUW  Y15, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKUSWB X1, X0, X0
	VMOVDQU   X0, 1(DI)(BX*1)
	CMPQ BX, CX
	JEQ  done
	ADDQ $16, BX
	JMP  block

done:
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
