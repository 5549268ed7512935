#include "textflag.h"

// CBC encryption on AESENC stitched into SHA-1 on SHA1RNDS4, after
// OpenSSL's aesni_cbc_sha1_enc (aesni-sha1-x86_64.pl): each turn of
// the loop CBC-encrypts four blocks and runs one compression over 64
// bytes of the hash input. Both are single dependent chains — the CBC
// chain through X10, the SHA-1 state through X0 — on different
// execution units, so with the two written side by side the core runs
// them at once and a turn costs about the longer chain, not the sum.
//
// SHA1RNDS4 has only a legacy-SSE form, so SHA-1 keeps the registers
// block_amd64.s in internal/sha1x gives it: X0 ABCD, X1/X2 E, X3..X6
// the message schedule, X7 the byte flip, X8/X9 the chaining value for
// the add after round 79. AES has X10 (the chaining value, then the
// block) and X11 (a scratch), round keys 1–4 in X12..X15 and every
// other round key a 16-byte-aligned memory operand: a copy of the
// schedule, byte-swapped into FIPS order, in this frame. R9 points at
// the copy; R10 = R9 + 16*(nr-10) puts the last six round keys at fixed
// offsets for every key size.

// bswap32 reverses the bytes of each 32-bit lane (schedule words are
// big-endian); flip reverses all sixteen (message words into round
// order).
DATA bswap32<>+0(SB)/8, $0x0405060700010203
DATA bswap32<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), RODATA|NOPTR, $16
DATA flip<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flip<>+8(SB)/8, $0x0001020304050607
GLOBL flip<>(SB), RODATA|NOPTR, $16

// KEY copies round key off(AX) to off(R9) in FIPS byte order; X11
// holds bswap32.
#define KEY(off) MOVOU off(AX), X10; PSHUFB X11, X10; MOVO X10, off(R9)

// LOAD reads message words off(R11).. into w in round order.
#define LOAD(off, w) MOVOU off(R11), w; PSHUFB X7, w

// QUAD runs four SHA-1 rounds (function f) with the words in w, E in
// e, copying ABCD into next for the next E, and carries the schedule:
// w1 (four rounds on) gets its SHA1MSG2, w2 (eight on) its W[t-8] XOR,
// w3 (twelve on) the SHA1MSG1 that starts it.
#define QUAD(f, w, e, next, w1, w2, w3) \
	SHA1NEXTE w, e; MOVO X0, next; SHA1MSG2 w, w1; \
	SHA1RNDS4 $f, e, X0; SHA1MSG1 w, w3; PXOR w, w2

// One AES block in five parts, one beside each of five SHA-1 groups.
// AES1 XORs the plaintext at off(SI) and round key 0 into the chain
// and runs round 1; AES3 runs round 4 and, for AES-192 and AES-256,
// the two or four rounds the fixed offsets leave out (label l skips
// them); AES5 runs the last round and stores the block at off(DI).
#define AES1(off) MOVOU off(SI), X11; PXOR 0(R9), X11; PXOR X11, X10; AESENC X12, X10
#define AES2 AESENC X13, X10; AESENC X14, X10
#define AES3(l) AESENC X15, X10; CMPQ CX, $12; JB l; \
	AESENC 80(R9), X10; AESENC 96(R9), X10; JEQ l; \
	AESENC 112(R9), X10; AESENC 128(R9), X10; l: \
	AESENC 80(R10), X10
#define AES4 AESENC 96(R10), X10; AESENC 112(R10), X10
#define AES5(off) AESENC 128(R10), X10; AESENC 144(R10), X10; \
	AESENCLAST 160(R10), X10; MOVOU X10, off(DI)

// func encryptSHA1(xk *uint32, nr int, dst, src, iv *byte, n int, s *[5]uint32, h *byte)
// n is a non-zero multiple of 64: the bytes CBC-encrypted from src to
// dst and the bytes at h compressed into s. Every load of a turn comes
// before its stores, and h never trails src, so dst may be src.
TEXT ·encryptSHA1(SB), NOSPLIT, $256-64
	MOVQ xk+0(FP), AX
	MOVQ nr+8(FP), CX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ iv+32(FP), DX
	MOVQ n+40(FP), BX
	MOVQ s+48(FP), R8
	MOVQ h+56(FP), R11

	// The FIPS-order copy of all fifteen schedule slots, 16-aligned.
	LEAQ  15(SP), R9
	ANDQ  $~15, R9
	MOVOU bswap32<>(SB), X11
	KEY(0); KEY(16); KEY(32); KEY(48); KEY(64)
	KEY(80); KEY(96); KEY(112); KEY(128); KEY(144)
	KEY(160); KEY(176); KEY(192); KEY(208); KEY(224)
	MOVO  16(R9), X12
	MOVO  32(R9), X13
	MOVO  48(R9), X14
	MOVO  64(R9), X15
	MOVQ  CX, R10
	SHLQ  $4, R10
	LEAQ  -160(R9)(R10*1), R10

	MOVOU  (R8), X0
	PSHUFD $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(R8), X1
	MOVOU  flip<>(SB), X7
	MOVOU  (DX), X10

loop:
	MOVO X1, X8
	MOVO X0, X9
	LOAD(0, X3)
	LOAD(16, X4)
	LOAD(32, X5)
	LOAD(48, X6)

	// Rounds 0–15 beside block 0's first four parts.
	AES1(0)
	PADDL     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	AES2
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3
	AES3(b0)
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3
	AES4
	QUAD(0, X6, X2, X1, X3, X4, X5)

	// Rounds 16–67, the schedule twelve rounds ahead.
	AES5(0)
	QUAD(0, X3, X1, X2, X4, X5, X6)
	AES1(16)
	QUAD(1, X4, X2, X1, X5, X6, X3)
	AES2
	QUAD(1, X5, X1, X2, X6, X3, X4)
	AES3(b1)
	QUAD(1, X6, X2, X1, X3, X4, X5)
	AES4
	QUAD(1, X3, X1, X2, X4, X5, X6)
	AES5(16)
	QUAD(1, X4, X2, X1, X5, X6, X3)
	AES1(32)
	QUAD(2, X5, X1, X2, X6, X3, X4)
	AES2
	QUAD(2, X6, X2, X1, X3, X4, X5)
	AES3(b2)
	QUAD(2, X3, X1, X2, X4, X5, X6)
	AES4
	QUAD(2, X4, X2, X1, X5, X6, X3)
	AES5(32)
	QUAD(2, X5, X1, X2, X6, X3, X4)
	AES1(48)
	QUAD(3, X6, X2, X1, X3, X4, X5)
	AES2
	QUAD(3, X3, X1, X2, X4, X5, X6)

	// Rounds 68–79, the schedule winding down.
	AES3(b3)
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6
	AES4
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0
	AES5(48)
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add the chaining value: E through SHA1NEXTE, ABCD lane-wise.
	SHA1NEXTE X8, X1
	PADDL     X9, X0
	ADDQ      $64, SI
	ADDQ      $64, DI
	ADDQ      $64, R11
	SUBQ      $64, BX
	JNZ       loop

	MOVOU  X10, (DX)
	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (R8)
	PEXTRD $3, X1, 16(R8)
	RET
