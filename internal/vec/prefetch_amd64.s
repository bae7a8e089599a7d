#include "textflag.h"

// func Prefetch(v []float32)
//
// One PREFETCHT0 per 64-byte line from the line holding v[0] to the line
// holding v's last byte; nothing for an empty v.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	TESTQ CX, CX
	JZ    done
	LEAQ  -1(SI)(CX*4), DI
	ANDQ  $~63, SI

line:
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	CMPQ       SI, DI
	JLS        line

done:
	RET
