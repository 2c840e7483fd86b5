/* A switch-dispatched stack bytecode interpreter running a program
 * that iterates a xorshift generator and folds it into an accumulator. */
#include "probe.h"

enum { PUSH, LOAD, STORE, ADD, SUB, XOR, SHL, SHR, DUP, JNZ, MUL3, HALT };

/* vars: 0 = x (generator state), 1 = acc, 2 = loop count */
static const int prog[] = {
	PUSH, 2463534, STORE, 0,
	PUSH, 0, STORE, 1,
	PUSH, 10000, STORE, 2,
	/* 12: loop */
	LOAD, 0, DUP, PUSH, 13, SHL, XOR, DUP, PUSH, 17, SHR, XOR,
	DUP, PUSH, 5, SHL, XOR, DUP, STORE, 0,
	LOAD, 1, MUL3, XOR, PUSH, -7, ADD, STORE, 1,
	LOAD, 2, PUSH, 1, SUB, DUP, STORE, 2,
	JNZ, 12,
	LOAD, 1, HALT,
};

static unsigned run(void)
{
	unsigned stack[16], vars[4];
	int sp = 0, pc = 0;

	for (;;) {
		int op = prog[pc++];
		switch (op) {
		case PUSH:
			stack[sp++] = prog[pc++];
			break;
		case LOAD:
			stack[sp++] = vars[prog[pc++]];
			break;
		case STORE:
			vars[prog[pc++]] = stack[--sp];
			break;
		case ADD:
			sp--;
			stack[sp - 1] += stack[sp];
			break;
		case SUB:
			sp--;
			stack[sp - 1] -= stack[sp];
			break;
		case XOR:
			sp--;
			stack[sp - 1] ^= stack[sp];
			break;
		case SHL:
			sp--;
			stack[sp - 1] <<= stack[sp];
			break;
		case SHR:
			sp--;
			stack[sp - 1] >>= stack[sp];
			break;
		case DUP:
			stack[sp] = stack[sp - 1];
			sp++;
			break;
		case JNZ:
			if (stack[--sp])
				pc = prog[pc];
			else
				pc++;
			break;
		case MUL3:
			stack[sp - 1] *= 3;
			break;
		case HALT:
			return stack[sp - 1];
		}
	}
}
