#include "core/fp_op.hpp"

#include "common/log.hpp"

namespace saris {

FpOp decode_fp_op(const Instr& in) {
  SARIS_CHECK(is_fp_op(in.op), "non-FP op offloaded: " << op_name(in.op));
  const OpDesc& d = op_desc(in.op);
  FpOp q;
  q.op = in.op;
  q.dst = in.frd;
  for_each_fp_read(in, [&](FReg r) { q.src[q.nsrc++] = r; });
  q.mem = d.mem;
  q.lat = static_cast<u8>(fpu_latency(in.op));
  q.flops = d.flops;
  return q;
}

}  // namespace saris
