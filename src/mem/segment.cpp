#include "mem/segment.h"

#include <cstring>
#include <new>
#include <utility>

#ifdef __linux__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

#include "mem/numa.h"
#include "support/assert.h"

namespace orwl::mem {

namespace {

void release(std::byte* data, std::size_t size, Segment::Backing backing,
             int fd, const std::string& shm_name, int creator_pid) {
  switch (backing) {
    case Segment::Backing::None:
    case Segment::Backing::External:
      break;
    case Segment::Backing::Heap:
      ::operator delete(data, std::align_val_t{kSegmentAlignment});
      break;
    case Segment::Backing::Mmap:
    case Segment::Backing::Shm:
#ifdef __linux__
      if (data != nullptr) ::munmap(data, size);
      if (fd >= 0) ::close(fd);
      // Only the process that created a NAMED object unlinks it: a
      // fork-inherited Segment copy dying in the child must not yank the
      // name from under the parent (or vice versa).
      if (!shm_name.empty() && creator_pid == ::getpid())
        ::shm_unlink(shm_name.c_str());
#else
      (void)size;
      (void)fd;
      (void)shm_name;
      (void)creator_pid;
#endif
      break;
  }
}

#ifdef __linux__
/// Map `bytes` of `fd` shared; returns nullptr on failure.
std::byte* map_shared_fd(int fd, std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  return p == MAP_FAILED ? nullptr : static_cast<std::byte*>(p);
}
#endif

}  // namespace

Segment::~Segment() {
  release(data_, size_, backing_, fd_, shm_name_, creator_pid_);
}

Segment::Segment(Segment&& o) noexcept
    : data_(std::exchange(o.data_, nullptr)),
      size_(std::exchange(o.size_, 0)),
      backing_(std::exchange(o.backing_, Backing::None)),
      target_node_(std::exchange(o.target_node_, -1)),
      interleaved_(std::exchange(o.interleaved_, false)),
      placed_(std::exchange(o.placed_, false)),
      zero_pending_(std::exchange(o.zero_pending_, false)),
      fd_(std::exchange(o.fd_, -1)),
      shm_name_(std::exchange(o.shm_name_, {})),
      creator_pid_(std::exchange(o.creator_pid_, -1)) {}

Segment& Segment::operator=(Segment&& o) noexcept {
  if (this == &o) return *this;
  release(data_, size_, backing_, fd_, shm_name_, creator_pid_);
  data_ = std::exchange(o.data_, nullptr);
  size_ = std::exchange(o.size_, 0);
  backing_ = std::exchange(o.backing_, Backing::None);
  target_node_ = std::exchange(o.target_node_, -1);
  interleaved_ = std::exchange(o.interleaved_, false);
  placed_ = std::exchange(o.placed_, false);
  zero_pending_ = std::exchange(o.zero_pending_, false);
  fd_ = std::exchange(o.fd_, -1);
  shm_name_ = std::exchange(o.shm_name_, {});
  creator_pid_ = std::exchange(o.creator_pid_, -1);
  return *this;
}

void Segment::zero_if_pending() {
  if (!zero_pending_) return;
  std::memset(data_, 0, size_);
  zero_pending_ = false;
}

bool Segment::bind_to_node(int node) {
  ORWL_CHECK_MSG(node >= 0, "bind_to_node needs a node id, got " << node);
  target_node_ = node;
  interleaved_ = false;
  if (size_ == 0) {
    placed_ = true;  // nothing to move: vacuously satisfied
    return true;
  }
  placed_ = backing_ == Backing::Mmap &&
            bind_pages_to_node(data_, size_, node);
  return placed_;
}

bool Segment::interleave(const std::vector<int>& node_ids) {
  ORWL_CHECK_MSG(!node_ids.empty(), "interleave needs at least one node");
  target_node_ = -1;
  interleaved_ = true;
  if (size_ == 0) {
    placed_ = true;
    return true;
  }
  placed_ = backing_ == Backing::Mmap &&
            interleave_pages(data_, size_, node_ids);
  return placed_;
}

Segment Segment::create_shm(const std::string& name, std::size_t bytes) {
  ORWL_CHECK_MSG(bytes > 0, "shared segments cannot be empty");
#ifdef __linux__
  int fd = -1;
  if (name.empty()) {
    fd = static_cast<int>(::syscall(SYS_memfd_create, "orwl-ipc", 0u));
    ORWL_CHECK_MSG(fd >= 0, "memfd_create failed: " << std::strerror(errno));
  } else {
    ORWL_CHECK_MSG(name.front() == '/', "shm names start with '/': " << name);
    fd = ::shm_open(name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    ORWL_CHECK_MSG(fd >= 0, "shm_open(" << name << ") failed: "
                                        << std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    if (!name.empty()) ::shm_unlink(name.c_str());
    ORWL_CHECK_MSG(false, "ftruncate to " << bytes << " bytes failed");
  }
  std::byte* p = map_shared_fd(fd, bytes);
  if (p == nullptr) {
    ::close(fd);
    if (!name.empty()) ::shm_unlink(name.c_str());
    ORWL_CHECK_MSG(false, "mmap of " << bytes << " shared bytes failed");
  }
  Segment seg;
  seg.data_ = p;  // tmpfs pages are zero-filled on allocation
  seg.size_ = bytes;
  seg.backing_ = Backing::Shm;
  seg.fd_ = fd;
  seg.shm_name_ = name;
  seg.creator_pid_ = ::getpid();
  return seg;
#else
  ORWL_CHECK_MSG(false, "shared segments require Linux (shm_open/memfd)");
#endif
}

Segment Segment::attach_shm(const std::string& name,
                            std::size_t expect_bytes) {
#ifdef __linux__
  ORWL_CHECK_MSG(!name.empty() && name.front() == '/',
                 "attach_shm needs a '/name', got '" << name << "'");
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  ORWL_CHECK_MSG(fd >= 0, "shm_open(" << name << ") failed: "
                                      << std::strerror(errno));
  Segment seg = attach_shm_fd(fd, expect_bytes);
  ::close(fd);  // attach_shm_fd dup()ed it
  return seg;
#else
  (void)expect_bytes;
  ORWL_CHECK_MSG(false, "shared segments require Linux (shm_open/memfd)");
#endif
}

Segment Segment::attach_shm_fd(int fd, std::size_t expect_bytes) {
#ifdef __linux__
  ORWL_CHECK_MSG(fd >= 0, "attach_shm_fd needs a valid fd");
  struct stat st{};
  ORWL_CHECK_MSG(::fstat(fd, &st) == 0, "fstat on shm fd failed");
  const auto bytes = static_cast<std::size_t>(st.st_size);
  ORWL_CHECK_MSG(bytes > 0, "shm object is empty — creator not done?");
  ORWL_CHECK_MSG(expect_bytes == 0 || bytes >= expect_bytes,
                 "shm object truncated: holds " << bytes << " bytes, need "
                                                << expect_bytes);
  const int own = ::fcntl(fd, F_DUPFD_CLOEXEC, 0);
  ORWL_CHECK_MSG(own >= 0, "dup of shm fd failed");
  std::byte* p = map_shared_fd(own, bytes);
  if (p == nullptr) {
    ::close(own);
    ORWL_CHECK_MSG(false, "mmap of " << bytes << " shared bytes failed");
  }
  Segment seg;
  seg.data_ = p;
  seg.size_ = bytes;
  seg.backing_ = Backing::Shm;
  seg.fd_ = own;
  return seg;
#else
  (void)fd;
  (void)expect_bytes;
  ORWL_CHECK_MSG(false, "shared segments require Linux (shm_open/memfd)");
#endif
}

Segment Segment::external_view(std::byte* data, std::size_t bytes) {
  ORWL_CHECK_MSG(bytes == 0 || data != nullptr,
                 "external view needs memory to point at");
  Segment seg;
  seg.data_ = bytes == 0 ? nullptr : data;
  seg.size_ = bytes;
  seg.backing_ = bytes == 0 ? Backing::None : Backing::External;
  return seg;
}

bool Arena::numa_backed() const {
  return opts_.policy != MemoryPolicy::Heap && !opts_.force_fallback &&
         numa_syscalls_available();
}

Segment Arena::allocate(std::size_t bytes, ZeroFill zero) const {
  Segment seg;
  if (bytes == 0) return seg;
  seg.size_ = bytes;
#ifdef __linux__
  if (numa_backed()) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      // Anonymous pages are zero on first touch; no memset needed (and
      // touching here would defeat late page placement).
      seg.data_ = static_cast<std::byte*>(p);
      seg.backing_ = Segment::Backing::Mmap;
      return seg;
    }
  }
#endif
  seg.data_ = static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t{kSegmentAlignment}));
  seg.backing_ = Segment::Backing::Heap;
  seg.zero_pending_ = true;
  if (zero == ZeroFill::Now) seg.zero_if_pending();
  return seg;
}

}  // namespace orwl::mem
