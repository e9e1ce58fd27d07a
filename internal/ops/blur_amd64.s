//go:build amd64 && !purego

#include "textflag.h"

// func blurRowVec(dst, above, cur, below []byte)
//
// Writes dst[1 : len(dst)-1], the 3×3 box means of one interior row, from
// the three source rows, sixteen outputs per block: the nine samples of
// every window are widened to 16-bit lanes and added (at most 9·255), then
// divided by nine as x·7282>>16, which ninths proves exact below 2¹⁵. The
// block that writes outputs x0+1 … x0+16 reads source columns x0 … x0+17,
// so the last block starts at len(dst)-18 and may overlap the one before it;
// both write the same bytes there.
TEXT ·blurRowVec(SB), NOSPLIT, $0-96
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
