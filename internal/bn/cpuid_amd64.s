#include "textflag.h"

// func cpuidADX() bool
TEXT ·cpuidADX(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x00080100, BX // EBX bit 19 (ADX) and bit 8 (BMI2, MULX)
	CMPL  BX, $0x00080100
	SETEQ ret+0(FP)

no:
	RET
