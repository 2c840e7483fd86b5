/* Recursive quicksort of 20,000 LCG words; the checksum folds the
 * sorted order and counts any adjacent pair left out of order. */
#include "probe.h"

#define N 20000

static int a[N];

static void sort(int *v, int lo, int hi)
{
	while (lo < hi) {
		int pivot = v[lo + (hi - lo) / 2];
		int i = lo, j = hi;

		while (i <= j) {
			while (v[i] < pivot)
				i++;
			while (v[j] > pivot)
				j--;
			if (i <= j) {
				int t = v[i];
				v[i] = v[j];
				v[j] = t;
				i++;
				j--;
			}
		}
		/* Recurse into the smaller half, loop on the larger. */
		if (j - lo < hi - i) {
			sort(v, lo, j);
			lo = i;
		} else {
			sort(v, i, hi);
			hi = j;
		}
	}
}

static unsigned run(void)
{
	unsigned seed = 2006, sum = 0, bad = 0;
	int i;

	for (i = 0; i < N; i++) {
		seed = seed * 1664525 + 1013904223;
		a[i] = (int)seed >> 3;
	}
	sort(a, 0, N - 1);
	for (i = 0; i < N; i++) {
		sum = sum * 31 + (unsigned)a[i];
		if (i > 0 && a[i - 1] > a[i])
			bad++;
	}
	return sum ^ (bad << 24);
}
