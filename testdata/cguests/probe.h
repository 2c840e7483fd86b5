/* Freestanding support for the compiled-guest probes: no libc, no
 * 64-bit divide, no floating point. Each probe defines run(), which
 * returns a checksum; _start prints it in hex through write(2) and
 * exits with its low six bits through int $0x80. */

static unsigned run(void);

static void sys_write(const char *buf, unsigned len)
{
	int ret;
	__asm__ volatile("int $0x80"
			 : "=a"(ret)
			 : "a"(4), "b"(1), "c"(buf), "d"(len)
			 : "memory");
}

static void __attribute__((noreturn)) sys_exit(int code)
{
	__asm__ volatile("int $0x80" : : "a"(1), "b"(code));
	for (;;)
		;
}

void __attribute__((noreturn)) _start(void)
{
	static const char hex[] = "0123456789abcdef";
	char line[9];
	unsigned sum = run();
	int i;

	for (i = 7; i >= 0; i--)
		line[7 - i] = hex[(sum >> (4 * i)) & 15];
	line[8] = '\n';
	sys_write(line, sizeof line);
	sys_exit(sum & 63);
}
