// Writing a whole file at a path: the one open/close/check every path
// overload of a stream writer (CSV traces, PPM images, OBJ meshes,
// plotfiles) goes through.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace xl {

/// Creates (or truncates) the file at `path` and hands `write` a stream on
/// it. The file is closed before the check, so an error that only shows when
/// the last bytes reach the disk (a full device) fails the write too. Throws
/// ContractError naming `what` and the path: "cannot open <what>: <path>" or
/// "cannot write <what>: <path>". A ContractError that `write` throws once
/// the stream has failed (a stream writer's own check) gives way to the
/// latter, so every failure of the file names the path.
void write_file(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& write);

}  // namespace xl
