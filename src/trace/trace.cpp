#include "trace/trace.hpp"

namespace rdcn::trace {

Trace Trace::prefix(std::size_t n) const {
  Trace t(num_racks_, name_ + "_prefix");
  const std::size_t m = n < u_.size() ? n : u_.size();
  t.u_.assign(u_.begin(), u_.begin() + static_cast<std::ptrdiff_t>(m));
  t.v_.assign(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(m));
  return t;
}

}  // namespace rdcn::trace
