/* Peak resident set size of the largest terminated child this process
   waited for, in KiB (getrusage(RUSAGE_CHILDREN).ru_maxrss on Linux):
   the peak RSS of the mascc processes the cli-compile workload spawns.
   OCaml's Unix library has no getrusage. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
