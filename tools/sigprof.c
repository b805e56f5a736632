/* PC-sampling profiler for hosts without `perf`: preload it, and every
 * process of the run leaves <SIGPROF_OUT or /tmp/sigprof>.<pid> holding its
 * /proc/self/maps and one sampled program counter per line. No unwinding:
 * tools/sigprof-report turns PCs into inlined source lines with addr2line.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so tools/sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so target/release/mptcp-perfbench --workload fattree_k8
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20) /* 8 MiB of BSS, touched only as it fills */
static unsigned long pcs[MAX_SAMPLES];
static unsigned n_pcs;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    unsigned i = __atomic_fetch_add(&n_pcs, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
#if defined(__x86_64__)
        pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.pc;
#else
#error "sigprof.c: read the program counter from this architecture's mcontext"
#endif
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *base = getenv("SIGPROF_OUT");
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s.%d", base ? base : "/tmp/sigprof", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    unsigned n = n_pcs < MAX_SAMPLES ? n_pcs : MAX_SAMPLES;
    for (unsigned i = 0; i < n; i++) fprintf(out, "P %lx\n", pcs[i]);
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    /* Asks for 1 ms; see the verify skill for what the kernel grants. */
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
