#include "core/oblivious.hpp"

namespace rdcn::core {

void Oblivious::serve_batch(std::span<const Request> batch) {
  RDCN_DCHECK(matching_view().size() == 0);
  RoutingDelta acc;
  for (const Request& r : batch) {
    RDCN_DCHECK(r.u != r.v);
    acc.routing_cost += dist(r.u, r.v);
  }
  acc.requests = batch.size();
  commit_routing(acc);
}

}  // namespace rdcn::core
