// Tests for thread binding. These adapt to the machine they run on: they
// bind to CPUs that exist and verify via sched_getaffinity.

#include <gtest/gtest.h>

#include <thread>

#include "support/assert.h"
#include "topo/binding.h"

namespace orwl::topo {
namespace {

TEST(Binding, EmptyCpusetRejected) {
  EXPECT_THROW(bind_current_thread(Bitmap{}), ContractError);
}

TEST(Binding, QueryReturnsNonEmpty) {
  const auto mask = current_thread_binding();
#ifdef __linux__
  ASSERT_TRUE(mask.has_value());
  EXPECT_GT(mask->count(), 0);
#endif
}

#ifdef __linux__
TEST(Binding, BindToFirstAllowedCpu) {
  const auto before = current_thread_binding();
  ASSERT_TRUE(before.has_value());
  const int cpu = before->first();
  std::thread worker([&] {
    EXPECT_TRUE(bind_current_thread(Bitmap::single(cpu)));
    const auto now = current_thread_binding();
    ASSERT_TRUE(now.has_value());
    EXPECT_EQ(now->count(), 1);
    EXPECT_TRUE(now->test(cpu));
  });
  worker.join();
}

TEST(Binding, NonexistentCpuFailsGracefully) {
  std::thread worker([] {
    const auto before = current_thread_binding();
    // CPU 4090 will not exist in this environment.
    EXPECT_FALSE(bind_current_thread(Bitmap::single(4090)));
    const auto after = current_thread_binding();
    ASSERT_TRUE(before.has_value());
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*before, *after) << "failed bind must not change the mask";
  });
  worker.join();
}

TEST(Binding, ScopedBindingRestores) {
  std::thread worker([] {
    const auto before = current_thread_binding();
    ASSERT_TRUE(before.has_value());
    const int cpu = before->first();
    {
      ScopedBinding guard(Bitmap::single(cpu));
      EXPECT_TRUE(guard.bound());
      const auto inside = current_thread_binding();
      EXPECT_EQ(inside->count(), 1);
    }
    const auto after = current_thread_binding();
    EXPECT_EQ(*before, *after);
  });
  worker.join();
}

TEST(Binding, ScopedBindingFailedIsNoop) {
  std::thread worker([] {
    const auto before = current_thread_binding();
    {
      ScopedBinding guard(Bitmap::single(4090));
      EXPECT_FALSE(guard.bound());
    }
    const auto after = current_thread_binding();
    EXPECT_EQ(*before, *after);
  });
  worker.join();
}
#endif

}  // namespace
}  // namespace orwl::topo
