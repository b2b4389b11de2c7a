; A short loop for cabt_tool's --rate= rows in CMakeLists.txt.
_start: movi d0, 3
loop:   add d1, d1, d0
        addi16 d0, -1
        jnz16 d0, loop
        halt
