#include "textflag.h"

// The AES round instructions over the schedules kernel.go runs.
// A schedule holds big-endian words, so in memory every 4-byte lane of
// a round key is byte-reversed from the FIPS order AESENC and AESDEC
// take: each key is loaded once per call and put right with one PSHUFB.
// The last ten round keys sit in X6..X15 for the whole call; the one to
// five before them in X2..X5 (encryption) or on the stack (decryption,
// whose four interleaved blocks need the registers).

// bswap32 reverses the bytes of each 32-bit lane.
DATA bswap32<>+0(SB)/8, $0x0405060700010203
DATA bswap32<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), RODATA|NOPTR, $16

// ROUNDKEY loads the round key at mem into reg in FIPS byte order; X0
// holds bswap32.
#define ROUNDKEY(mem, reg) MOVOU mem, reg; PSHUFB X0, reg

// LASTKEYS, with AX = xk and CX = nr, points R8 at the last ten round
// keys, &xk[4*(nr-9)], loads them into X6..X15 and leaves bswap32 in
// X0.
#define LASTKEYS \
	MOVQ CX, R8; SHLQ $4, R8; LEAQ -144(AX)(R8*1), R8; \
	MOVOU bswap32<>(SB), X0; \
	ROUNDKEY(0(R8), X6); ROUNDKEY(16(R8), X7); ROUNDKEY(32(R8), X8); \
	ROUNDKEY(48(R8), X9); ROUNDKEY(64(R8), X10); ROUNDKEY(80(R8), X11); \
	ROUNDKEY(96(R8), X12); ROUNDKEY(112(R8), X13); ROUNDKEY(128(R8), X14); \
	ROUNDKEY(144(R8), X15)

// ROUNDS10 runs the last ten rounds, keys X6..X15, on the block in X0.
#define ROUNDS10(round, last) \
	round X6, X0; round X7, X0; round X8, X0; round X9, X0; round X10, X0; \
	round X11, X0; round X12, X0; round X13, X0; round X14, X0; last X15, X0

// SPILL copies the round key at off(AX) to off(SP) in FIPS byte order.
#define SPILL(off) ROUNDKEY(off(AX), X1); MOVOU X1, off(SP)

// ALL4 applies op with key to the four blocks in X0..X3; DEC4SP and
// DEC1SP (X0 alone) run an AESDEC round with the key at off(SP).
#define ALL4(op, key) op key, X0; op key, X1; op key, X2; op key, X3
#define DEC4SP(off) MOVOU off(SP), X5; ALL4(AESDEC, X5)
#define DEC1SP(off) MOVOU off(SP), X5; AESDEC X5, X0

// func encryptCBCAsm(xk *uint32, nr int, dst, src, iv *byte, n int)
// n is a non-zero multiple of 16. The chain is serial, one block at a
// time; AES-256's round-1 key is the one read from the stack per block.
TEXT ·encryptCBCAsm(SB), NOSPLIT, $16-48
	MOVQ xk+0(FP), AX
	MOVQ nr+8(FP), CX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ iv+32(FP), DX
	MOVQ n+40(FP), BX
	LASTKEYS
	ROUNDKEY((AX), X2)
	CMPQ CX, $12
	JB   encLoaded
	ROUNDKEY(-32(R8), X4)
	ROUNDKEY(-16(R8), X5)
	JEQ  encLoaded
	ROUNDKEY(-48(R8), X3)
	ROUNDKEY(-64(R8), X1)
	MOVOU X1, 0(SP)

encLoaded:
	MOVOU (DX), X0

encBlock:
	MOVOU (SI), X1
	PXOR  X1, X0
	PXOR  X2, X0
	CMPQ  CX, $12
	JB    enc128
	JEQ   enc192
	MOVOU 0(SP), X1
	AESENC X1, X0
	AESENC X3, X0

enc192:
	AESENC X4, X0
	AESENC X5, X0

enc128:
	ROUNDS10(AESENC, AESENCLAST)
	MOVOU X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	SUBQ  $16, BX
	JNZ   encBlock
	MOVOU X0, (DX)
	RET

// func decryptCBCAsm(xk *uint32, nr int, dst, src, iv *byte, n int)
// n is a non-zero multiple of 16; xk is the equivalent-inverse-cipher
// schedule. Four blocks at a time, then one: every ciphertext block of
// a group is read again for the chaining XOR before any plaintext is
// stored, so dst may be src. X4 is the chaining value, X5 a scratch.
TEXT ·decryptCBCAsm(SB), NOSPLIT, $80-48
	MOVQ xk+0(FP), AX
	MOVQ nr+8(FP), CX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ iv+32(FP), DX
	MOVQ n+40(FP), BX
	LASTKEYS
	SPILL(0)
	CMPQ CX, $12
	JB   decLoaded
	SPILL(16)
	SPILL(32)
	JEQ  decLoaded
	SPILL(48)
	SPILL(64)

decLoaded:
	MOVOU (DX), X4
	CMPQ  BX, $64
	JB    decOne

decFour:
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU 0(SP), X5
	ALL4(PXOR, X5)
	CMPQ  CX, $12
	JB    decFour128
	DEC4SP(16)
	DEC4SP(32)
	JEQ   decFour128
	DEC4SP(48)
	DEC4SP(64)

decFour128:
	ALL4(AESDEC, X6)
	ALL4(AESDEC, X7)
	ALL4(AESDEC, X8)
	ALL4(AESDEC, X9)
	ALL4(AESDEC, X10)
	ALL4(AESDEC, X11)
	ALL4(AESDEC, X12)
	ALL4(AESDEC, X13)
	ALL4(AESDEC, X14)
	ALL4(AESDECLAST, X15)
	PXOR       X4, X0
	MOVOU      0(SI), X5
	PXOR       X5, X1
	MOVOU      16(SI), X5
	PXOR       X5, X2
	MOVOU      32(SI), X5
	PXOR       X5, X3
	MOVOU      48(SI), X4
	MOVOU      X0, 0(DI)
	MOVOU      X1, 16(DI)
	MOVOU      X2, 32(DI)
	MOVOU      X3, 48(DI)
	ADDQ       $64, SI
	ADDQ       $64, DI
	SUBQ       $64, BX
	CMPQ       BX, $64
	JAE        decFour
	TESTQ      BX, BX
	JZ         decDone

decOne:
	MOVOU (SI), X1
	MOVOU 0(SP), X0
	PXOR  X1, X0
	CMPQ  CX, $12
	JB    decOne128
	DEC1SP(16)
	DEC1SP(32)
	JEQ   decOne128
	DEC1SP(48)
	DEC1SP(64)

decOne128:
	ROUNDS10(AESDEC, AESDECLAST)
	PXOR  X4, X0
	MOVOU X1, X4
	MOVOU X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	SUBQ  $16, BX
	JNZ   decOne

decDone:
	MOVOU X4, (DX)
	RET
