/* A sampling profiler for boxes without perf or valgrind: preload it, and
 * every 4 ms of CPU time it records RIP and the RBP chain (so build the
 * program with -C force-frame-pointers=yes). x86-64 Linux only. At exit it
 * writes the file-backed lines of /proc/self/maps, then one line of hex
 * addresses per sample (leaf first), to $PROF_OUT. fold.py reads that.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   PROF_OUT=run.prof LD_PRELOAD=./sigprof.so ./program args...
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 16)
#define MAX_DEPTH 48

static uintptr_t samples[MAX_SAMPLES][MAX_DEPTH];
static volatile int taken;

/* A frame pointer is followed only while it climbs the stack in steps a real
 * frame could take; a function built without one ends the walk, no more. */
static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    int slot = __sync_fetch_and_add(&taken, 1);
    if (slot >= MAX_SAMPLES) return;
    const greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
    uintptr_t *stack = samples[slot], rsp = (uintptr_t)regs[REG_RSP];
    uintptr_t *frame = (uintptr_t *)regs[REG_RBP];
    int depth = 0;
    stack[depth++] = (uintptr_t)regs[REG_RIP];
    while (depth < MAX_DEPTH && (uintptr_t)frame >= rsp &&
           (uintptr_t)frame < rsp + (8u << 20) && !((uintptr_t)frame & 7)) {
        uintptr_t *up = (uintptr_t *)frame[0];
        if (frame[1] < 4096) break;
        stack[depth++] = frame[1];
        if (up <= frame) break;
        frame = up;
    }
    if (depth < MAX_DEPTH) stack[depth] = 0;
}

__attribute__((constructor)) static void arm(void) {
    if (!getenv("PROF_OUT")) return;
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_tick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval tick = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("PROF_OUT");
    if (!path) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        if (strchr(line, '/')) fprintf(out, "M %s", line);
    for (int i = 0; i < taken && i < MAX_SAMPLES; i++) {
        fputc('S', out);
        for (int d = 0; d < MAX_DEPTH && samples[i][d]; d++)
            fprintf(out, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
