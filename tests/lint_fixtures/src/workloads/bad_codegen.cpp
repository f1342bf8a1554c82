// Fixture: a workload kernel that asks the compiler for speed through
// pragmas and attributes instead of through its source.
// Must trip [codegen] on every pragma and attribute line.

#include <cstddef>

namespace orwl::lintfix {

#pragma GCC optimize("O3")
_Pragma("GCC unroll 4")

__attribute__((optimize("unroll-loops"))) void a(double* x) { x[0] = 1; }
__attribute__((target("avx2"))) void b(double* x) { x[0] = 2; }
__attribute__((target_clones("avx2", "default"))) void c(double*) {}
__attribute__((noinline, hot)) void d() {}
__attribute__((__flatten__)) void e() {}
[[gnu::optimize("O3")]] void f() {}
[[gnu::target("avx2")]] void g() {}

struct Padded {
  double v __attribute__((aligned(64)));
};

inline void sweep(double* x, std::size_t n) {
#pragma GCC ivdep
  for (std::size_t i = 0; i < n; ++i) x[i] *= 0.5;
}

}  // namespace orwl::lintfix
