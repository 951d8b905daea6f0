/* Child-process accounting for the benchmark.

   [perfbench_wait4] is wait4(2) with its rusage: user+sys CPU seconds of
   the reaped child, including every descendant it reaped itself (the
   procs backend's workers), and the largest RSS among them — what the
   end-to-end cpu_s and peak_rss_mib metrics are made of.

   [perfbench_set_subreaper] makes the bench the reaper of orphaned
   grandchildren, so workers left behind by a killed coordinator are
   re-parented to the bench and can be waited for. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <sys/time.h>
#include <sys/resource.h>
#include <errno.h>
#include <string.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

static double tv_seconds(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6;
}

/* Blocks until a child matching [pid] (a pid, or -pgid for any member
   of a process group) ends. Returns (pid, status, cpu_s, maxrss_kib)
   with pid = 0 when there is no such child (ECHILD); status >= 0 is an
   exit code, < 0 the negated number of the terminating signal. */
CAMLprim value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal2(res, cpu);
  int status = 0, err = 0, code;
  struct rusage ru;
  pid_t r;
  pid_t pid = (pid_t)Long_val(vpid);
  memset(&ru, 0, sizeof ru);
  for (;;) {
    caml_enter_blocking_section();
    r = wait4(pid, &status, 0, &ru);
    err = errno;
    caml_leave_blocking_section();
    if (r >= 0 || err != EINTR) break;
    /* Run OCaml signal handlers (see Proc.init), then keep waiting. */
    caml_process_pending_actions();
  }
  if (r < 0 && err != ECHILD) caml_failwith(strerror(err));
  if (r < 0) r = 0;
  if (WIFEXITED(status)) code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) code = -WTERMSIG(status);
  else code = -128;
  cpu = caml_copy_double(tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime));
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_long(r));
  Store_field(res, 1, Val_int(code));
  Store_field(res, 2, cpu);
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

CAMLprim value perfbench_set_subreaper(value unit)
{
  (void)unit;
#ifdef PR_SET_CHILD_SUBREAPER
  prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0);
#endif
  return Val_unit;
}
