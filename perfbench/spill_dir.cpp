// Spill files for the benchmark driver.
//
// check::SpillFile asks std::tmpfile() for its anonymous spill target, which
// glibc always places in /tmp. The driver is linked with
// -Wl,--wrap=tmpfile, so the library's calls land here instead: an unlinked
// file in the directory named by set_spill_dir(), keeping every byte a run
// writes inside the benchmark's work directory. Same contract as tmpfile:
// "w+b", removed when closed, nullptr on failure (the checker then keeps the
// chunks in RAM and reports an io_error).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

namespace perfbench {

namespace {
std::string& spill_dir() {
  static std::string dir = ".";
  return dir;
}
}  // namespace

void set_spill_dir(const std::string& dir) { spill_dir() = dir; }

}  // namespace perfbench

extern "C" std::FILE* __wrap_tmpfile(void) {
  std::string pattern = perfbench::spill_dir() + "/spill-XXXXXX";
  std::vector<char> path(pattern.begin(), pattern.end());
  path.push_back('\0');
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return nullptr;
  ::unlink(path.data());
  std::FILE* file = ::fdopen(fd, "w+b");
  if (file == nullptr) ::close(fd);
  return file;
}
