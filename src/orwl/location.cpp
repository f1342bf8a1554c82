#include "orwl/location.h"

#include <utility>

namespace orwl {

LocationBuffer::LocationBuffer(LocationId id, mem::Segment storage,
                   std::string name, GrantSink* sink)
    : id_(id),
      name_(std::move(name)),
      storage_(std::move(storage)),
      queue_(sink, FifoQueue::kMinCapacity) {}

}  // namespace orwl
