#include "common/file_io.h"

#include <cerrno>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace souffle {

std::optional<std::string>
readFileContents(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return std::nullopt;
    }
    std::string content(static_cast<size_t>(st.st_size), '\0');
    size_t done = 0;
    while (done < content.size()) {
        const ssize_t got =
            ::read(fd, content.data() + done, content.size() - done);
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0) {
            ::close(fd);
            return std::nullopt;
        }
        if (got == 0) // the file shrank since fstat
            break;
        done += static_cast<size_t>(got);
    }
    ::close(fd);
    content.resize(done);
    return content;
}

} // namespace souffle
