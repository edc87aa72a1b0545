/*
 * istep: run a command to exit and count the instructions it executes.
 *
 *     cc -O2 -o istep .github/scripts/istep.c
 *     ./istep ftnoc run --topology 4x4 --packets 20
 *     ./istep --pcs pcs.txt ftnoc run --topology 4x4 --packets 20
 *
 * The command runs under ptrace(PTRACE_SINGLESTEP), which stops it after
 * every instruction (its threads too), so the count is exact and needs
 * no hardware counter: the command's stdout and stderr pass through,
 * and the count is printed last on stderr as `istep: N instructions`.
 * Address-space randomization is off for the command, so that code
 * whose path depends on an address (copy alignment) repeats. istep
 * exits with the command's status (128 + signal if it was killed).
 *
 * With --pcs FILE it also writes how many instructions ran at each
 * program counter, one `pc count` line each, after a `# base ADDR PATH`
 * line naming where the command's executable was loaded;
 * .github/scripts/pcs_report.py turns that into exact self counts per
 * source line and function (a callgrind-style profile, no valgrind).
 *
 * Single-stepping runs 50-100 k instructions per second, so only tiny
 * runs fit: .github/scripts/instructions.sh sizes its shapes to it.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/personality.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/types.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

/* The --pcs histogram: an open-addressed table of program counters. */
#define SLOTS (1 << 22)
static unsigned long long pcs[SLOTS], hits[SLOTS];
static long used;

static int record(unsigned long long pc) {
    unsigned long long i = (pc * 0x9E3779B97F4A7C15ull) >> 42;
    while (pcs[i] && pcs[i] != pc)
        i = (i + 1) & (SLOTS - 1);
    if (!pcs[i] && ++used > SLOTS / 2)
        return -1;
    pcs[i] = pc;
    hits[i]++;
    return 0;
}

/* The first `# base ADDR PATH` of the command's executable, from its maps. */
static void base(pid_t pid, FILE *out) {
    char path[64], line[4096], exe[4096];
    snprintf(path, sizeof path, "/proc/%d/exe", (int)pid);
    ssize_t len = readlink(path, exe, sizeof exe - 1);
    if (len < 0)
        return;
    exe[len] = 0;
    snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
    FILE *maps = fopen(path, "r");
    if (!maps)
        return;
    while (fgets(line, sizeof line, maps)) {
        unsigned long long start, offset;
        char file[4096] = "";
        if (sscanf(line, "%llx-%*x %*s %llx %*s %*s %4095s", &start, &offset, file) >= 2 &&
            offset == 0 && strcmp(file, exe) == 0) {
            fprintf(out, "# base %llx %s\n", start, exe);
            break;
        }
    }
    fclose(maps);
}

int main(int argc, char **argv) {
    FILE *pcs_out = NULL;
    if (argc > 2 && strcmp(argv[1], "--pcs") == 0) {
        pcs_out = fopen(argv[2], "w");
        if (!pcs_out) {
            perror("istep: --pcs");
            return 2;
        }
        argv += 2;
        argc -= 2;
    }
    if (argc < 2) {
        fprintf(stderr, "usage: istep [--pcs FILE] COMMAND [ARG...]\n");
        return 2;
    }
    pid_t child = fork();
    if (child < 0) {
        perror("istep: fork");
        return 2;
    }
    if (child == 0) {
        ptrace(PTRACE_TRACEME, 0, 0, 0);
        personality(ADDR_NO_RANDOMIZE);
        execvp(argv[1], argv + 1);
        perror("istep: exec");
        _exit(127);
    }
    int status;
    /* The command stops once, at its exec. */
    if (waitpid(child, &status, 0) < 0 || !WIFSTOPPED(status)) {
        fprintf(stderr, "istep: %s did not start\n", argv[1]);
        return 2;
    }
    if (pcs_out)
        base(child, pcs_out);
    ptrace(PTRACE_SETOPTIONS, child, 0, PTRACE_O_TRACECLONE | PTRACE_O_EXITKILL);
    unsigned long long count = 0;
    int code = 0;
    ptrace(PTRACE_SINGLESTEP, child, 0, 0);
    for (;;) {
        pid_t pid = waitpid(-1, &status, __WALL);
        if (pid < 0) {
            if (errno == EINTR)
                continue;
            break; /* ECHILD: every thread has exited */
        }
        if (WIFEXITED(status) || WIFSIGNALED(status)) {
            if (pid == child)
                code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
            continue;
        }
        int sig = WSTOPSIG(status);
        if (sig == SIGTRAP) {
            /* A step, unless it is a clone event stop (high bits set). */
            if (status >> 16 == 0) {
                count++;
                struct user_regs_struct regs;
                if (pcs_out && (ptrace(PTRACE_GETREGS, pid, 0, &regs) < 0 || record(regs.rip) < 0)) {
                    fprintf(stderr, "istep: --pcs lost a step\n");
                    return 2;
                }
            }
            sig = 0;
        } else if (sig == SIGSTOP) {
            /* A new thread's first stop. */
            sig = 0;
        }
        ptrace(PTRACE_SINGLESTEP, pid, 0, sig);
    }
    if (pcs_out) {
        for (long i = 0; i < SLOTS; i++)
            if (pcs[i])
                fprintf(pcs_out, "%llx %llu\n", pcs[i], hits[i]);
        fclose(pcs_out);
    }
    fprintf(stderr, "istep: %llu instructions\n", count);
    return code;
}
