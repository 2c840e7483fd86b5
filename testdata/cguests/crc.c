/* CRC-32 (IEEE, reflected, table-driven) over 4 KB of LCG bytes. */
#include "probe.h"

static unsigned table[256];
static unsigned char data[4096];

static unsigned run(void)
{
	unsigned seed = 12345, crc = 0xffffffff;
	unsigned i, j;

	for (i = 0; i < 256; i++) {
		unsigned c = i;
		for (j = 0; j < 8; j++)
			c = (c & 1) ? 0xedb88320 ^ (c >> 1) : c >> 1;
		table[i] = c;
	}
	for (i = 0; i < sizeof data; i++) {
		seed = seed * 1103515245 + 12345;
		data[i] = seed >> 16;
	}
	for (i = 0; i < sizeof data; i++)
		crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
	return ~crc;
}
