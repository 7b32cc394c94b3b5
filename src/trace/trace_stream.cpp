#include "trace/trace_stream.hpp"

#include <array>

namespace rdcn::trace {

Trace materialize(TraceStream& stream) {
  Trace t(stream.num_racks(), stream.name());
  t.reserve(stream.total() - stream.produced());
  std::array<Request, 4096> chunk;
  while (true) {
    const std::size_t n = stream.next(chunk.data(), chunk.size());
    if (n == 0) break;
    t.append(chunk.data(), n);
  }
  return t;
}

}  // namespace rdcn::trace
