#pragma once
// Segment / Arena: pluggable location storage.
//
// A Segment is the byte store behind one LocationBuffer — a chunk of
// zero-initialized memory that is NOT assumed to be process-private heap.
// A heap segment may defer its zero fill (ZeroFill::Deferred): the holder
// then calls zero_if_pending() on the thread that should first touch the
// pages, before anyone reads them.
// Today there are two backings (heap, anonymous mmap with NUMA page
// placement); the abstraction is also the seam a multi-process shm
// transport plugs into later (a Segment backed by a shared mapping).
//
// The Arena decides the backing from the MemoryPolicy: numa policies use
// mmap so pages can be bound / interleaved / migrated with mem/numa.h;
// when the syscall layer is unavailable (non-Linux, seccomp, the CI
// no-NUMA leg) allocation falls back to the heap and the page ops record
// *intent* only — programs run identically, placement just stays
// advisory. That keeps `--memory-policy numa_local` working end-to-end on
// any host.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mem/policy.h"

namespace orwl::mem {

/// Minimum alignment every non-empty Segment guarantees, regardless of
/// backing (a cache line; mmap-backed segments are page-aligned).
inline constexpr std::size_t kSegmentAlignment = 64;

/// When Arena::allocate zeroes a heap segment: at once, or on the first
/// Segment::zero_if_pending() call.
enum class ZeroFill : std::uint8_t { Now, Deferred };

/// One owned, zero-initialized byte range. Move-only; the destructor
/// releases per backing. Obtained from Arena::allocate.
class Segment {
 public:
  enum class Backing {
    None,      ///< empty (default-constructed or zero bytes)
    Heap,      ///< aligned operator new
    Mmap,      ///< anonymous private mapping (NUMA page ops reach the kernel)
    Shm,       ///< shared mapping of a shm_open/memfd object (ipc transport)
    External,  ///< non-owning view into memory someone else owns
  };

  Segment() = default;
  ~Segment();
  Segment(Segment&& o) noexcept;
  Segment& operator=(Segment&& o) noexcept;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<std::byte> bytes() { return {data_, size_}; }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {data_, size_};
  }
  [[nodiscard]] Backing backing() const { return backing_; }

  /// The bytes still await their deferred zero fill. bytes() does not
  /// check: whoever hands them out calls zero_if_pending() first.
  [[nodiscard]] bool zero_pending() const { return zero_pending_; }
  /// Zero the bytes on the calling thread if their fill is pending, and
  /// clear the flag; otherwise do nothing.
  void zero_if_pending();

  /// NUMA node the pages are intended to live on; -1 = unconstrained.
  /// Intent is recorded even on the fallback path, so placement decisions
  /// stay observable on hosts where the syscalls do nothing.
  [[nodiscard]] int target_node() const { return target_node_; }
  /// The pages are interleaved across nodes (NumaInterleave applied).
  [[nodiscard]] bool interleaved() const { return interleaved_; }
  /// The last bind/interleave request physically reached the kernel.
  [[nodiscard]] bool physically_placed() const { return placed_; }

  /// Place — or, for already-touched pages, migrate (MPOL_MF_MOVE) — the
  /// segment onto `node`. Records the intent unconditionally; returns
  /// true when the kernel accepted the request (vacuously true for empty
  /// segments). Contents are preserved either way.
  bool bind_to_node(int node);

  /// Interleave the pages across `node_ids`. Same intent/return
  /// semantics as bind_to_node.
  bool interleave(const std::vector<int>& node_ids);

  // --- cross-address-space backings (the ipc:: transport seam) -------------

  /// Create a shared, zero-filled shm object of `bytes` and map it
  /// (MAP_SHARED, page-aligned). `name` empty -> an anonymous memfd whose
  /// fd the creating process passes to children (fork inheritance); a
  /// name like "/orwl-xyz" -> shm_open(O_CREAT|O_EXCL), unlinked again
  /// when the CREATING process destroys the segment (a fork-inherited
  /// copy destroyed in a child leaves the name alone). Linux only; throws
  /// ContractError elsewhere or on failure.
  [[nodiscard]] static Segment create_shm(const std::string& name,
                                          std::size_t bytes);

  /// Map an existing named shm object. `expect_bytes` nonzero -> the
  /// object must be at least that large (attach-time truncation check).
  [[nodiscard]] static Segment attach_shm(const std::string& name,
                                          std::size_t expect_bytes = 0);

  /// Map an shm object by file descriptor (the memfd handed across a
  /// fork). The fd is dup()ed; the caller keeps ownership of `fd`.
  [[nodiscard]] static Segment attach_shm_fd(int fd,
                                             std::size_t expect_bytes = 0);

  /// Non-owning window into memory owned elsewhere (a slice of a shared
  /// segment). The destructor releases nothing; the underlying mapping
  /// must outlive the view.
  [[nodiscard]] static Segment external_view(std::byte* data,
                                             std::size_t bytes);

  /// The shm object's file descriptor (Backing::Shm only, else -1) — pass
  /// it to a forked child for attach_shm_fd.
  [[nodiscard]] int shm_fd() const { return fd_; }

 private:
  friend class Arena;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  Backing backing_ = Backing::None;
  int target_node_ = -1;
  bool interleaved_ = false;
  bool placed_ = false;
  bool zero_pending_ = false;
  int fd_ = -1;            ///< owned shm fd (Backing::Shm)
  std::string shm_name_;   ///< non-empty: unlink on destroy (creator only)
  int creator_pid_ = -1;   ///< pid that created the named object
};

/// Segment factory for one MemoryPolicy.
class Arena {
 public:
  struct Options {
    MemoryPolicy policy = MemoryPolicy::Heap;
    /// Use the heap fallback even when the NUMA syscalls would work
    /// (tests; the ORWL_FORCE_NO_NUMA CMake option forces this
    /// process-wide instead, via the syscall probe).
    bool force_fallback = false;
  };

  Arena() = default;
  explicit Arena(Options opts) : opts_(opts) {}

  [[nodiscard]] MemoryPolicy policy() const { return opts_.policy; }

  /// True when allocations are mmap-backed and page ops reach the kernel
  /// — i.e. a numa policy is in force and the host supports it.
  [[nodiscard]] bool numa_backed() const;

  /// A zero-initialized segment of `bytes` (0 -> empty segment). Aligned
  /// to at least kSegmentAlignment; page-aligned when numa_backed().
  /// ZeroFill::Deferred leaves a heap segment unwritten and zero_pending()
  /// until its zero_if_pending(); mmap-backed segments are zero on first
  /// touch and never pending.
  [[nodiscard]] Segment allocate(std::size_t bytes,
                                 ZeroFill zero = ZeroFill::Now) const;

 private:
  Options opts_;
};

}  // namespace orwl::mem
