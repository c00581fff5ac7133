/**
 * @file
 * Micro-op trace capture (`smtflex trace`).
 *
 * Dumps a thread's synthetic dynamic stream as text, so a run's input can
 * be inspected, diffed or handed to other tools.
 *
 * Format: a small text header (magic, version, op count) followed by one
 * op per line: `cls mispredict fetchcross depdist addr fetchaddr`
 * (hex addresses). Simple, diffable, and robust across platforms.
 */

#ifndef SMTFLEX_TRACE_TRACE_IO_H
#define SMTFLEX_TRACE_TRACE_IO_H

#include <iosfwd>

#include "trace/tracegen.h"

namespace smtflex {

/** Write @p count ops from @p gen to @p out; fatal() on an empty trace
 * or a stream failure. */
void writeTrace(std::ostream &out, TraceGenerator &gen, InstrCount count);

} // namespace smtflex

#endif // SMTFLEX_TRACE_TRACE_IO_H
