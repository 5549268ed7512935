#include "textflag.h"

// SHA-1 on the SHA extensions. X0 holds ABCD with A in the top lane;
// E rides in the top lane of X1 or X2, the other lanes zero, the two
// registers trading roles every four rounds: SHA1NEXTE derives the next
// E from the ABCD copied aside before the last SHA1RNDS4 and adds it to
// the top word of the next four message words. X3..X6 are the rolling
// window of sixteen message words, four to a register, W[t] in the top
// lane; X7 is the byte flip; X8 and X9 keep the chaining value (E,
// ABCD) for the add after round 79. No stack frame.

// flip reverses all sixteen bytes: four big-endian message words become
// one register with the first of them in the top lane.
DATA flip<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flip<>+8(SB)/8, $0x0001020304050607
GLOBL flip<>(SB), RODATA|NOPTR, $16

// LOAD reads message words off(SI).. into w in round order.
#define LOAD(off, w) MOVOU off(SI), w; PSHUFB X7, w

// QUAD runs four rounds (function f) with the words in w, E in e,
// and copies ABCD into next for the next E. Then it carries the
// schedule: w1 (the words four rounds on) gets its SHA1MSG2, w2
// (eight on) its W[t-8] XOR, and w3 (twelve on) the SHA1MSG1 that
// starts it.
#define QUAD(f, w, e, next, w1, w2, w3) \
	SHA1NEXTE w, e; MOVO X0, next; SHA1MSG2 w, w1; \
	SHA1RNDS4 $f, e, X0; SHA1MSG1 w, w3; PXOR w, w2

// func blockSHANI(s *[5]uint32, p *byte, n int)
// n is a non-zero multiple of 64.
TEXT ·blockSHANI(SB), NOSPLIT, $0-24
	MOVQ   s+0(FP), DI
	MOVQ   p+8(FP), SI
	MOVQ   n+16(FP), DX
	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  flip<>(SB), X7

	// The loop starts on a cache line, so its speed does not depend on
	// what else the binary links in ahead of it (a 32-byte shift read
	// as several percent of a bulk record's CPU).
	PCALIGN $64

loop:
	MOVO X1, X8
	MOVO X0, X9

	// Rounds 0–15: each group loads its own words.
	LOAD(0, X3)
	PADDL     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	LOAD(16, X4)
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3
	LOAD(32, X5)
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3
	LOAD(48, X6)
	QUAD(0, X6, X2, X1, X3, X4, X5)

	// Rounds 16–67: the schedule runs twelve rounds ahead.
	QUAD(0, X3, X1, X2, X4, X5, X6)
	QUAD(1, X4, X2, X1, X5, X6, X3)
	QUAD(1, X5, X1, X2, X6, X3, X4)
	QUAD(1, X6, X2, X1, X3, X4, X5)
	QUAD(1, X3, X1, X2, X4, X5, X6)
	QUAD(1, X4, X2, X1, X5, X6, X3)
	QUAD(2, X5, X1, X2, X6, X3, X4)
	QUAD(2, X6, X2, X1, X3, X4, X5)
	QUAD(2, X3, X1, X2, X4, X5, X6)
	QUAD(2, X4, X2, X1, X5, X6, X3)
	QUAD(2, X5, X1, X2, X6, X3, X4)
	QUAD(3, X6, X2, X1, X3, X4, X5)
	QUAD(3, X3, X1, X2, X4, X5, X6)

	// Rounds 68–79: the schedule winds down, one step per group.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add the chaining value: E through SHA1NEXTE, ABCD lane-wise.
	SHA1NEXTE X8, X1
	PADDL     X9, X0
	ADDQ      $64, SI
	SUBQ      $64, DX
	JNZ       loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)
	RET
