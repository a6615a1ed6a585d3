/* wait4(2) for the benchmark: reaps a child and returns its exit status
   together with its peak resident set size, which the OCaml Unix library
   does not expose. */
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* returns (code, maxrss_kib): code >= 0 is an exit code, code < 0 the
   negated number of the signal that killed the child */
CAMLprim value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

#include <time.h>

/* CLOCK_MONOTONIC in seconds: every benchmark timing uses this clock, so
   a wall-clock step during a run cannot skew a measurement */
CAMLprim value perfbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
